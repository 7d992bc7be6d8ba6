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
	hdr      [4]byte
	// vecb/bufs are the gathered-write scratch vectors, kept in the
	// struct so fragment emission allocates nothing per call.
	vecb [][]byte
	bufs net.Buffers
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
	return rw.WriteRecordv(p)
}

// WriteRecordv writes the concatenation of bufs as one record without
// staging it into a contiguous buffer: for each fragment, the 4-byte
// record mark and the payload spans covering it are coalesced into a
// single gathered (writev-style) write. Callers with header+payload
// pairs avoid both the copy and the extra small write per fragment.
// The writer keeps no reference to bufs once it returns.
func (rw *RecordWriter) WriteRecordv(bufs ...[]byte) error {
	defer func() { clear(rw.vecb[:cap(rw.vecb)]) }()
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	bi, bo := 0, 0 // cursor into bufs
	for {
		n := total
		last := true
		if n > rw.fragSize {
			n, last = rw.fragSize, false
		}
		hdr := uint32(n)
		if last {
			hdr |= lastFragmentBit
		}
		binary.BigEndian.PutUint32(rw.hdr[:], hdr)
		rw.vecb = append(rw.vecb[:0], rw.hdr[:])
		for remain := n; remain > 0; {
			b := bufs[bi][bo:]
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
			if bo == len(bufs[bi]) {
				bi, bo = bi+1, 0
			}
		}
		// WriteTo consumes the vector, so hand it a fresh header
		// sliced from the persistent scratch each fragment.
		rw.bufs = net.Buffers(rw.vecb)
		if _, err := rw.bufs.WriteTo(rw.w); err != nil {
			return fmt.Errorf("oncrpc: write fragment: %w", err)
		}
		if last {
			return nil
		}
		total -= n
	}
}

// A RecordReader reads RFC 5531 record-marked records from a stream.
type RecordReader struct {
	r       io.Reader
	maxSize int
	hdr     [4]byte
	buf     []byte // next's record storage, reused from record to record
}

// NewRecordReader returns a RecordReader with the default record limit.
func NewRecordReader(r io.Reader) *RecordReader {
	return &RecordReader{r: r, maxSize: DefaultMaxRecordSize}
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
	rec, err := rr.next(nil)
	rr.buf = nil // rec is the caller's
	return rec, err
}

// next is ReadRecord into the reader's own buffer, which grows to fit
// and is reused: the serving loops read every record of a connection
// through it, and the record is valid until they call next again.
// ready, if not nil, runs once the record's first mark has arrived and
// before the buffer is touched, so a loop can wait for the next record
// while the previous one is still being read by someone else.
func (rr *RecordReader) next(ready func()) ([]byte, error) {
	var out []byte
	first := true
	for {
		if _, err := io.ReadFull(rr.r, rr.hdr[:]); err != nil {
			if first && err == io.EOF {
				return nil, io.EOF
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("oncrpc: read fragment header: %w", err)
		}
		if first {
			if ready != nil {
				ready()
			}
			out = rr.buf[:0]
		}
		h := binary.BigEndian.Uint32(rr.hdr[:])
		last := h&lastFragmentBit != 0
		n := int(h &^ lastFragmentBit)
		if !last && n == 0 {
			return nil, ErrZeroFragment
		}
		if len(out)+n > rr.maxSize {
			return nil, fmt.Errorf("%w: %d+%d > %d", ErrRecordTooLarge, len(out), n, rr.maxSize)
		}
		if n > 0 {
			// Read each fragment straight into the result slice. The
			// last fragment's mark gives the record's exact size; until
			// then growth is geometric, by a quarter and at least the
			// fragment, so a buffer kept for the next record of this
			// size holds little more than the record.
			if need := len(out) + n; need > cap(out) {
				if g := cap(out) + cap(out)/4; !last && g > need {
					need = g
				}
				grown := make([]byte, len(out), need)
				copy(grown, out)
				out = grown
			}
			m := len(out)
			out = out[:m+n]
			if _, err := io.ReadFull(rr.r, out[m:]); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return nil, fmt.Errorf("oncrpc: read fragment body: %w", err)
			}
		}
		first = false
		if last {
			if out == nil {
				out = []byte{}
			}
			rr.buf = out
			return out, nil
		}
	}
}
