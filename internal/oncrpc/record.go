// Package oncrpc implements the ONC Remote Procedure Call protocol,
// version 2 (RFC 5531), over stream transports.
//
// This is the Go counterpart of the paper's RPC-Lib: a from-scratch
// ONC RPC implementation whose only runtime dependency is the standard
// library, with full support for the record-marking standard including
// fragmented records (the feature the pre-existing Rust onc_rpc crate
// lacked and that Cricket needs to move large memory buffers as RPC
// arguments).
//
// The package provides:
//
//   - RecordReader / RecordWriter: RFC 5531 §11 record marking over any
//     byte stream, with configurable fragment size and record limits.
//   - Call / Reply message headers with opaque auth (AUTH_NONE).
//   - Client: a concurrent, transaction-multiplexing RPC client.
//   - Server: a multi-program, multi-version RPC server.
package oncrpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"cricket/internal/xdr"
)

// Record-marking constants (RFC 5531 §11).
const (
	// lastFragmentBit marks the final fragment of a record.
	lastFragmentBit = 1 << 31
	// maxFragmentLen is the largest payload one fragment can carry.
	maxFragmentLen = 1<<31 - 1

	// DefaultFragmentSize is the fragment payload size used by
	// RecordWriter unless configured otherwise. Large enough that
	// small calls are a single fragment; small enough to exercise the
	// fragmentation path for bulk memory transfers.
	DefaultFragmentSize = 1 << 20

	// DefaultMaxRecordSize bounds the total size of a received record.
	DefaultMaxRecordSize = 1 << 30
)

// Record-marking errors.
var (
	// ErrRecordTooLarge reports a record exceeding the reader's limit.
	ErrRecordTooLarge = errors.New("oncrpc: record exceeds maximum size")
	// ErrZeroFragment reports a zero-length non-terminal fragment,
	// which would allow an endless record.
	ErrZeroFragment = errors.New("oncrpc: zero-length non-final fragment")
)

// A RecordWriter frames byte records using the RFC 5531 record-marking
// standard. Each record is split into fragments of at most the
// configured size; the last fragment carries the terminator bit.
type RecordWriter struct {
	w        io.Writer
	fragSize int
	hdr      [4]byte // the mark of a fragment with no headroom in front of it
	// vecb/bufs are the gathered-write scratch vectors, kept in the
	// struct so fragment emission allocates nothing per call.
	vecb [][]byte
	bufs net.Buffers
}

// A buffersWriter is a transport wrapper (netsim.CountingConn,
// FaultConn) that passes a gathered write on, to stay one writev on a
// TCP connection: net.Buffers knows only the net package's own types.
type buffersWriter interface {
	WriteBuffers(*net.Buffers) (int64, error)
}

// NewRecordWriter returns a RecordWriter with the default fragment size.
func NewRecordWriter(w io.Writer) *RecordWriter {
	return &RecordWriter{w: w, fragSize: DefaultFragmentSize}
}

// SetFragmentSize configures the maximum fragment payload. It panics
// if size is not in (0, 2^31).
func (rw *RecordWriter) SetFragmentSize(size int) {
	if size <= 0 || size > maxFragmentLen {
		panic("oncrpc: invalid fragment size")
	}
	rw.fragSize = size
}

// WriteRecord writes p as one record, fragmenting as needed. An empty
// record is legal and is sent as a single empty terminal fragment.
func (rw *RecordWriter) WriteRecord(p []byte) error {
	return rw.write([][]byte{p}, false)
}

// write writes the concatenation of spans as one record without
// staging it: each fragment's mark and the spans covering it go out in
// one gathered (writev-style) write. A framed record (xdr.Gather.Framed)
// leads with xdr.Headroom bytes: its first mark is stamped there, so a
// record of one fragment and one span is one plain Write on any
// transport. Later marks are the writer's own bytes, never written into
// a payload. The writer keeps no reference to spans once it returns.
func (rw *RecordWriter) write(spans [][]byte, framed bool) error {
	total := 0
	for _, b := range spans {
		total += len(b)
	}
	lead := 0 // bytes of headroom the next fragment takes with it
	if framed {
		lead = xdr.Headroom
		total -= lead
	}
	defer func() { clear(rw.vecb[:cap(rw.vecb)]) }()
	bi, bo := 0, 0 // cursor into spans
	for {
		n := total
		last := true
		if n > rw.fragSize {
			n, last = rw.fragSize, false
		}
		mark := uint32(n)
		if last {
			mark |= lastFragmentBit
		}
		rw.vecb = rw.vecb[:0]
		if lead > 0 {
			binary.BigEndian.PutUint32(spans[0], mark)
		} else {
			binary.BigEndian.PutUint32(rw.hdr[:], mark)
			rw.vecb = append(rw.vecb, rw.hdr[:])
		}
		for remain := n + lead; remain > 0; {
			b := spans[bi][bo:]
			if len(b) == 0 {
				bi, bo = bi+1, 0
				continue
			}
			if len(b) > remain {
				b = b[:remain]
			}
			rw.vecb = append(rw.vecb, b)
			bo += len(b)
			remain -= len(b)
			if bo == len(spans[bi]) {
				bi, bo = bi+1, 0
			}
		}
		var err error
		rw.bufs = net.Buffers(rw.vecb) // consumed by a gathered write: a fresh one each fragment
		if bw, ok := rw.w.(buffersWriter); len(rw.vecb) == 1 {
			_, err = rw.w.Write(rw.vecb[0])
		} else if ok {
			_, err = bw.WriteBuffers(&rw.bufs)
		} else {
			_, err = rw.bufs.WriteTo(rw.w)
		}
		if err != nil {
			return fmt.Errorf("oncrpc: write fragment: %w", err)
		}
		if last {
			return nil
		}
		total -= n
		lead = 0
	}
}

// Where a RecordReader keeps a record in its buffer: the first mark is
// read to recHead and the record starts at recBody, a cache line into
// an allocation the runtime aligns to one (every size from minRecBuf
// up), so a bulk payload copied out of it sits as it would in an
// allocation of its own; four bytes off, memmove runs 20 % slower on
// 4 MiB. readAhead bounds the read that fetches a record's first mark
// with what follows: what it reads past the first fragment gets moved.
const (
	recBody   = 64
	recHead   = recBody - 4
	minRecBuf = 512
	readAhead = 64 << 10
)

// A RecordReader reads RFC 5531 record-marked records from a stream.
// It is resumable: a read that fails with a timeout (a read deadline on
// the stream) leaves it where it was, in the middle of a mark or of a
// fragment, and the next call carries on from there.
type RecordReader struct {
	r       io.Reader
	maxSize int
	// buf holds, from recBody, the n bytes of the record assembled so
	// far, and in buf[rd:wr], behind them, bytes read from r and not yet
	// consumed: a mark, what came with the first, what was read past the
	// record. It grows to fit and is reused from record to record.
	buf    []byte
	n      int
	rd, wr int
	frag   int   // bytes of the current fragment still to come
	last   bool  // the current fragment ends the record
	done   bool  // the record in buf was returned: the next call starts another
	err    error // a framing error; the stream's position is lost
}

// NewRecordReader returns a RecordReader with the default record limit.
func NewRecordReader(r io.Reader) *RecordReader {
	return &RecordReader{r: r, maxSize: DefaultMaxRecordSize, rd: recHead, wr: recHead}
}

// SetMaxRecordSize bounds the size of an accepted record. It panics if
// max is not positive.
func (rr *RecordReader) SetMaxRecordSize(max int) {
	if max <= 0 {
		panic("oncrpc: invalid max record size")
	}
	rr.maxSize = max
}

// ReadRecord reads one complete record, reassembling fragments, into
// a fresh slice. On a cleanly closed stream before any fragment it
// returns io.EOF; a close mid-record returns io.ErrUnexpectedEOF.
func (rr *RecordReader) ReadRecord() ([]byte, error) {
	rec, err := rr.next()
	if err != nil {
		return nil, err
	}
	rr.drop() // rec is the caller's
	return rec[:len(rec):len(rec)], nil
}

// drop lets go of the buffer once its record was handed out, keeping
// what was read past that record in a new one.
func (rr *RecordReader) drop() {
	ahead := rr.buf[rr.rd:rr.wr]
	rr.buf, rr.done, rr.n, rr.rd, rr.wr = nil, false, 0, recHead, recHead
	if len(ahead) > 0 {
		rr.fit(recHead+len(ahead), 0)
		rr.wr += copy(rr.buf[recHead:], ahead)
	}
}

// trim drops a buffer the last record grew past what a connection
// keeps between records.
func (rr *RecordReader) trim() {
	if len(rr.buf) > xdr.RetainMax {
		rr.drop()
	}
}

// fit makes buf at least size bytes long, keeping its first keep. The
// last fragment's mark gives the record's exact size; until then the
// next mark at least is to come, and growth is geometric, by a quarter:
// a buffer kept for the next such record holds little more than it.
func (rr *RecordReader) fit(size, keep int) {
	if size <= len(rr.buf) {
		return
	}
	if !rr.last {
		size = max(size+4, len(rr.buf)+len(rr.buf)/4)
	}
	grown := make([]byte, max(size, minRecBuf))
	if rr.buf != nil {
		copy(grown, rr.buf[:keep])
	}
	rr.buf = grown
}

// fill reads into buf[wr:lim]. Only a stream that ends before the
// first byte of a record ends cleanly.
func (rr *RecordReader) fill(lim int, what string) error {
	k, err := rr.r.Read(rr.buf[rr.wr:lim])
	rr.wr += k
	if k > 0 || err == nil {
		return nil
	}
	if err == io.EOF {
		if rr.n == 0 && rr.wr == recHead {
			return io.EOF
		}
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("oncrpc: read fragment %s: %w", what, err)
}

// next is ReadRecord into the reader's own buffer: the serving loops
// and the client read every record of a connection through it, and the
// record is valid until they call next again.
func (rr *RecordReader) next() ([]byte, error) {
	if rr.err != nil {
		return nil, rr.err
	}
	if rr.done {
		// What was read past the last record starts the next one.
		rr.done, rr.n = false, 0
		rr.rd, rr.wr = recHead, recHead+copy(rr.buf[recHead:], rr.buf[rr.rd:rr.wr])
	}
	for {
		// The fragment's bytes: what is already here moves down over the
		// mark that came with it, the rest is read straight into place.
		for at := recBody + rr.n; rr.frag > 0; at = recBody + rr.n {
			if rr.rd == rr.wr {
				rr.fit(at+rr.frag, at)
				rr.rd, rr.wr = at, at
				if err := rr.fill(at+rr.frag, "body"); err != nil {
					return nil, err
				}
			}
			k := min(rr.frag, rr.wr-rr.rd)
			if at != rr.rd {
				copy(rr.buf[at:], rr.buf[rr.rd:rr.rd+k])
			}
			rr.rd, rr.n, rr.frag = rr.rd+k, rr.n+k, rr.frag-k
		}
		if rr.last {
			rr.last, rr.done = false, true
			return rr.buf[recBody : recBody+rr.n], nil
		}
		// The mark. A record's first is read together with what follows
		// it, to where that leaves the record at recBody; a later one on
		// its own, so that its fragment follows the last without a gap.
		lim := rr.rd + 4
		for rr.wr < lim {
			rr.fit(lim, rr.wr)
			if rr.n == 0 {
				lim = min(len(rr.buf), recHead+readAhead)
			}
			if err := rr.fill(lim, "header"); err != nil {
				return nil, err
			}
			lim = rr.rd + 4
		}
		h := binary.BigEndian.Uint32(rr.buf[rr.rd:])
		rr.rd, rr.last, rr.frag = lim, h&lastFragmentBit != 0, int(h&^lastFragmentBit)
		if !rr.last && rr.frag == 0 {
			rr.err = ErrZeroFragment
		} else if rr.n+rr.frag > rr.maxSize {
			rr.err = fmt.Errorf("%w: %d+%d > %d", ErrRecordTooLarge, rr.n, rr.frag, rr.maxSize)
		}
		if rr.err != nil {
			return nil, rr.err
		}
	}
}
