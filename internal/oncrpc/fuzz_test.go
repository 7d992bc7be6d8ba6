package oncrpc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"testing"

	"cricket/internal/xdr"
)

// fuzzMaxRecord is the record limit the fuzzed readers run with, small
// enough for the fuzzer to cross.
const fuzzMaxRecord = 1 << 12

// reassemble is the reference the RecordReader is held to: RFC 5531
// record marking over a whole stream, with nothing reused, read ahead
// or resumed. It returns the records and the error that ends the
// stream: io.EOF between records, io.ErrUnexpectedEOF inside one, or
// the framing error.
func reassemble(stream []byte, maxSize int) (recs [][]byte, err error) {
	for len(stream) > 0 {
		rec := []byte{}
		for last := false; !last; {
			if len(stream) < 4 {
				return recs, io.ErrUnexpectedEOF
			}
			h := binary.BigEndian.Uint32(stream)
			n := int(h &^ lastFragmentBit)
			last, stream = h&lastFragmentBit != 0, stream[4:]
			if !last && n == 0 {
				return recs, ErrZeroFragment
			}
			if len(rec)+n > maxSize {
				return recs, ErrRecordTooLarge
			}
			if len(stream) < n {
				return recs, io.ErrUnexpectedEOF
			}
			rec, stream = append(rec, stream[:n]...), stream[n:]
		}
		recs = append(recs, rec)
	}
	return recs, io.EOF
}

// A cutReader delivers a stream in reads of at most chunk bytes that
// never cross cut, where, if deadline is set, one read fails the way a
// read deadline makes it fail.
type cutReader struct {
	stream     []byte
	chunk, cut int
	deadline   bool
	pos        int
}

func (r *cutReader) Read(p []byte) (int, error) {
	if r.pos == r.cut && r.deadline {
		r.deadline = false
		return 0, os.ErrDeadlineExceeded
	}
	if r.pos == len(r.stream) {
		return 0, io.EOF
	}
	n := min(len(p), r.chunk, len(r.stream)-r.pos)
	if r.pos < r.cut {
		n = min(n, r.cut-r.pos)
	}
	copy(p, r.stream[r.pos:r.pos+n])
	r.pos += n
	return n, nil
}

// readAll reads r to its end through a RecordReader, resuming after a
// timeout, taking every handOver-th record with ReadRecord (which
// gives the buffer away and must carry what was read past the record
// over to a new one) and the others in place.
func readAll(r io.Reader, handOver int) (recs [][]byte, err error) {
	rr := NewRecordReader(r)
	rr.SetMaxRecordSize(fuzzMaxRecord)
	for i := 1; ; i++ {
		var rec []byte
		if handOver > 0 && i%handOver == 0 {
			rec, err = rr.ReadRecord()
		} else if rec, err = rr.next(); err == nil {
			rec = bytes.Clone(rec)
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			i--
			continue
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// sameOutcome compares a reader's result with the reference's.
func sameOutcome(t *testing.T, how string, got [][]byte, gotErr error, want [][]byte, wantErr error) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, the reference has %d (errors %v, %v)", how, len(got), len(want), gotErr, wantErr)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d differs from the reference's (%d bytes, %d)", how, i, len(got[i]), len(want[i]))
		}
	}
	if wantErr == io.EOF {
		if gotErr != io.EOF {
			t.Fatalf("%s: ended with %v, want a bare io.EOF", how, gotErr)
		}
	} else if !errors.Is(gotErr, wantErr) {
		t.Fatalf("%s: ended with %v, the reference with %v", how, gotErr, wantErr)
	}
}

// discardConn is a connection that serves a stream to its reader and
// swallows what is written.
type discardConn struct{ io.Reader }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// FuzzRecordReader holds the resumable, reading-ahead RecordReader to
// the reference reassembler: any stream, however it is delivered —
// whole, a byte at a time, cut at any offset with or without a read
// deadline firing at the cut — yields the same records and ends the
// same way. Then the stream is served: the calls that reach the
// dispatcher are the well-formed ones the reference found, although
// each record is overwritten as soon as its dispatch returns.
func FuzzRecordReader(f *testing.F) {
	mark := func(n int, last bool) []byte {
		h := uint32(n)
		if last {
			h |= lastFragmentBit
		}
		return binary.BigEndian.AppendUint32(nil, h)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// The golden CUDA_MEMCPY_HTOD call of internal/cricket's wire test,
	// with a short payload, and the reply it gets.
	call, _ := hex.DecodeString("00000007" + "00000000" + "00000002" + "20000ade" + "00000001" + "00000007" +
		"0000000000000000" + "0000000000000000" + "0000007f00000000" + "00000005" + "0102030405000000")
	rep, _ := hex.DecodeString("00000007" + "00000001" + "00000000" + "0000000000000000" + "00000000" + "00000000")
	var valid bytes.Buffer
	e := xdr.NewEncoder(&valid)
	(&CallHeader{XID: 9, Prog: testProg, Vers: testVers, Proc: procAdd}).MarshalXDR(e)
	e.PutInt64(40)
	e.PutInt64(2)
	add := valid.Bytes()
	for _, seed := range [][]byte{
		cat(mark(len(call), true), call),
		cat(mark(len(rep), true), rep),
		cat(mark(len(add), true), add, mark(len(add), true), add),                                              // two pipelined
		cat(mark(len(add), true), add, mark(len(call), true), call, mark(len(add), true), add),                 // three
		cat(mark(8, false), add[:8], mark(len(add)-8, false), add[8:], mark(0, true)),                          // empty final fragment
		cat(mark(1, false), add[:1], mark(2, false), add[1:3], mark(len(add)-3, true), add[3:], mark(0, true)), // tiny non-final fragments, an empty record
		cat(mark(4, false), add[:4], mark(0, false), mark(4, true), add[4:8]),                                  // zero-length non-final
		cat(mark(fuzzMaxRecord, false), make([]byte, fuzzMaxRecord), mark(1, true), []byte{1}),                 // over the limit across fragments
		mark(fuzzMaxRecord+1, true),                                                                            // over the limit at once
		cat(mark(len(add), true), add[:10]),                                                                    // cut short
		cat(mark(minRecBuf-recBody-1, true), make([]byte, minRecBuf-recBody-1), mark(len(add), true), add),     // the first buffer, less one
		cat(mark(minRecBuf-recBody, true), make([]byte, minRecBuf-recBody), mark(len(add), true), add),         // exactly
		cat(mark(minRecBuf-recBody+1, true), make([]byte, minRecBuf-recBody+1), mark(len(add), true), add),     // and one more
		{},
	} {
		f.Add(seed, uint16(3))
	}
	f.Fuzz(func(t *testing.T, stream []byte, at uint16) {
		if len(stream) > 4*fuzzMaxRecord {
			return
		}
		want, wantErr := reassemble(stream, fuzzMaxRecord)
		got, err := readAll(bytes.NewReader(stream), 0)
		sameOutcome(t, "whole", got, err, want, wantErr)
		got, err = readAll(&cutReader{stream: stream, chunk: 1, cut: -1}, 2)
		sameOutcome(t, "byte by byte", got, err, want, wantErr)
		// Every offset when the stream is short; else the fuzzer's pick
		// and its neighbours.
		cuts := []int{int(at) - 1, int(at), int(at) + 1}
		if len(stream) <= 256 {
			cuts = cuts[:0]
			for c := 0; c <= len(stream); c++ {
				cuts = append(cuts, c)
			}
		}
		for _, cut := range cuts {
			if cut < 0 || cut > len(stream) {
				continue
			}
			for _, deadline := range []bool{false, true} {
				got, err = readAll(&cutReader{stream: stream, chunk: len(stream), cut: cut, deadline: deadline}, 3)
				sameOutcome(t, "cut", got, err, want, wantErr)
			}
		}

		// Served: every well-formed call of the program is dispatched
		// once, in order, and the loop ends as the stream does.
		var wantProcs, gotProcs []uint32
		for _, rec := range want {
			var h CallHeader
			if h.UnmarshalXDR(xdr.NewBytesDecoder(rec)) == nil && h.Prog == testProg && h.Vers == testVers {
				wantProcs = append(wantProcs, h.Proc)
			}
		}
		AfterDispatchForTest = func(rec []byte) {
			for i := range rec {
				rec[i] = 0xdb
			}
		}
		defer func() { AfterDispatchForTest = nil }()
		srv := NewServer()
		srv.MaxRecordSize = fuzzMaxRecord
		srv.Register(testProg, testVers, DispatcherFunc(func(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error {
			gotProcs = append(gotProcs, proc)
			return testDispatcher(proc, dec, enc)
		}))
		err = srv.ServeConn(discardConn{&cutReader{stream: stream, chunk: 7, cut: -1}})
		if len(gotProcs) != len(wantProcs) || (len(wantProcs) > 0 && !bytes.Equal(procBytes(gotProcs), procBytes(wantProcs))) {
			t.Fatalf("served: dispatched procedures %v, the reference's records hold %v", gotProcs, wantProcs)
		}
		if wantErr == io.EOF && err != io.EOF || wantErr != io.EOF && !errors.Is(err, wantErr) {
			t.Fatalf("served: ServeConn ended with %v, the reference with %v", err, wantErr)
		}
	})
}

func procBytes(procs []uint32) (b []byte) {
	for _, p := range procs {
		b = binary.BigEndian.AppendUint32(b, p)
	}
	return b
}

// TestReadAheadCarriesPipelinedRecords: once the buffer has grown, the
// read that fetches a record's first mark takes in up to readAhead
// bytes, whole records and the first part of one among them; they all
// come out, for totals on both sides of that size.
func TestReadAheadCarriesPipelinedRecords(t *testing.T) {
	for _, edge := range []int{readAhead - 1, readAhead, readAhead + 1} {
		var wire bytes.Buffer
		w := NewRecordWriter(&wire)
		w.SetFragmentSize(1000)
		w.WriteRecord(pattern(3*readAhead, 0)) // grows the buffer past readAhead
		// One record that ends edge bytes into the next read, then
		// small ones across the read after that.
		w.SetFragmentSize(DefaultFragmentSize)
		w.WriteRecord(pattern(edge-4-4, 1))
		for i := 0; i < 3000; i++ {
			w.WriteRecord(pattern(i%97, i))
		}
		want, _ := reassemble(wire.Bytes(), DefaultMaxRecordSize)
		rr := NewRecordReader(bytes.NewReader(wire.Bytes()))
		for i := range want {
			rec, err := rr.next()
			if err != nil || !bytes.Equal(rec, want[i]) {
				t.Fatalf("edge %d: record %d: %d bytes, %v, want %d", edge, i, len(rec), err, len(want[i]))
			}
		}
		if _, err := rr.next(); err != io.EOF {
			t.Fatalf("edge %d: after the last record: %v", edge, err)
		}
	}
}
