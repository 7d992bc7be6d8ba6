package oncrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"cricket/internal/xdr"
)

func TestRecordRoundTripSingleFragment(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	msg := []byte("hello cricket")
	if err := w.WriteRecord(msg); err != nil {
		t.Fatal(err)
	}
	// Single fragment: 4-byte header with last bit, then payload.
	if got, want := buf.Len(), 4+len(msg); got != want {
		t.Fatalf("wire length %d, want %d", got, want)
	}
	h := binary.BigEndian.Uint32(buf.Bytes()[:4])
	if h&lastFragmentBit == 0 {
		t.Fatal("last-fragment bit not set")
	}
	if int(h&^lastFragmentBit) != len(msg) {
		t.Fatalf("fragment length %d, want %d", h&^lastFragmentBit, len(msg))
	}
	r := NewRecordReader(&buf)
	got, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestRecordEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	if err := w.WriteRecord(nil); err != nil {
		t.Fatal(err)
	}
	r := NewRecordReader(&buf)
	got, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestRecordFragmentation(t *testing.T) {
	// 10 bytes with fragment size 3 -> fragments of 3,3,3,1.
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	w.SetFragmentSize(3)
	msg := []byte("0123456789")
	if err := w.WriteRecord(msg); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), 4*4+10; got != want {
		t.Fatalf("wire length %d, want %d", got, want)
	}
	// Check fragment headers.
	wire := buf.Bytes()
	offsets := []struct {
		length uint32
		last   bool
	}{{3, false}, {3, false}, {3, false}, {1, true}}
	pos := 0
	for i, f := range offsets {
		h := binary.BigEndian.Uint32(wire[pos:])
		if (h&lastFragmentBit != 0) != f.last {
			t.Errorf("fragment %d last bit = %v, want %v", i, h&lastFragmentBit != 0, f.last)
		}
		if h&^lastFragmentBit != f.length {
			t.Errorf("fragment %d length = %d, want %d", i, h&^lastFragmentBit, f.length)
		}
		pos += 4 + int(f.length)
	}
	r := NewRecordReader(&buf)
	got, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestRecordFragmentSizeBoundary(t *testing.T) {
	// Record exactly equal to the fragment size stays a single fragment.
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	w.SetFragmentSize(8)
	if err := w.WriteRecord(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 12 {
		t.Fatalf("wire length %d, want 12 (one fragment)", buf.Len())
	}
}

func TestRecordMultipleSequential(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	w.SetFragmentSize(5)
	msgs := [][]byte{[]byte("first"), []byte("the second record"), {}, []byte("x")}
	for _, m := range msgs {
		if err := w.WriteRecord(m); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRecordReader(&buf)
	for i, m := range msgs {
		got, err := r.ReadRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, m) {
			t.Fatalf("record %d: got %q, want %q", i, got, m)
		}
	}
	if _, err := r.ReadRecord(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestRecordMaxSize(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	if err := w.WriteRecord(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	r := NewRecordReader(&buf)
	r.SetMaxRecordSize(64)
	if _, err := r.ReadRecord(); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestRecordMaxSizeAcrossFragments(t *testing.T) {
	// Each fragment under the limit, sum over it.
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	w.SetFragmentSize(40)
	if err := w.WriteRecord(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	r := NewRecordReader(&buf)
	r.SetMaxRecordSize(64)
	if _, err := r.ReadRecord(); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestRecordZeroNonFinalFragmentRejected(t *testing.T) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(0)) // non-final, zero length
	r := NewRecordReader(&buf)
	if _, err := r.ReadRecord(); !errors.Is(err, ErrZeroFragment) {
		t.Fatalf("err = %v, want ErrZeroFragment", err)
	}
}

func TestRecordTruncatedMidFragment(t *testing.T) {
	var full bytes.Buffer
	w := NewRecordWriter(&full)
	if err := w.WriteRecord([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < full.Len(); cut++ {
		r := NewRecordReader(bytes.NewReader(full.Bytes()[:cut]))
		if _, err := r.ReadRecord(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestSetFragmentSizePanics(t *testing.T) {
	for _, bad := range []int{0, -1, maxFragmentLen + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetFragmentSize(%d) did not panic", bad)
				}
			}()
			NewRecordWriter(io.Discard).SetFragmentSize(bad)
		}()
	}
}

// Property: any payload round-trips for any fragment size.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(payload []byte, fragSizeSeed uint16) bool {
		fragSize := int(fragSizeSeed)%4096 + 1
		var buf bytes.Buffer
		w := NewRecordWriter(&buf)
		w.SetFragmentSize(fragSize)
		if err := w.WriteRecord(payload); err != nil {
			return false
		}
		r := NewRecordReader(&buf)
		got, err := r.ReadRecord()
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a sequence of records over one stream round-trips in order.
func TestQuickRecordSequence(t *testing.T) {
	f := func(payloads [][]byte, fragSizeSeed uint16) bool {
		fragSize := int(fragSizeSeed)%512 + 1
		var buf bytes.Buffer
		w := NewRecordWriter(&buf)
		w.SetFragmentSize(fragSize)
		for _, p := range payloads {
			if err := w.WriteRecord(p); err != nil {
				return false
			}
		}
		r := NewRecordReader(&buf)
		for _, p := range payloads {
			got, err := r.ReadRecord()
			if err != nil || !bytes.Equal(got, p) {
				return false
			}
		}
		_, err := r.ReadRecord()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordVectoredMatchesContiguous(t *testing.T) {
	// A gathered write over any split of the payload must emit exactly
	// the bytes WriteRecord emits for the concatenation, including
	// fragment boundaries that land mid-buffer — framed, with the first
	// mark stamped into the headroom, or not — and only ever write
	// into that headroom.
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	pristine := bytes.Clone(payload)
	splits := [][]int{
		{1000},
		{0, 1000, 0},
		{1, 2, 997},
		{300, 300, 300, 100},
		{999, 1},
		{7, 0, 13, 500, 480},
	}
	for _, fragSize := range []int{64, 333, 1000, 4096} {
		var want bytes.Buffer
		w := NewRecordWriter(&want)
		w.SetFragmentSize(fragSize)
		if err := w.WriteRecord(payload); err != nil {
			t.Fatal(err)
		}
		for _, split := range splits {
			var bufs [][]byte
			off := 0
			for _, n := range split {
				bufs = append(bufs, payload[off:off+n])
				off += n
			}
			var got, gotFramed bytes.Buffer
			vw := NewRecordWriter(&got)
			vw.SetFragmentSize(fragSize)
			if err := vw.write(bufs, false); err != nil {
				t.Fatal(err)
			}
			framed := append([][]byte{append(make([]byte, xdr.Headroom), bufs[0]...)}, bufs[1:]...)
			fw := NewRecordWriter(&gotFramed)
			fw.SetFragmentSize(fragSize)
			if err := fw.write(framed, true); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) || !bytes.Equal(gotFramed.Bytes(), want.Bytes()) {
				t.Fatalf("fragSize=%d split=%v: vectored wire bytes differ", fragSize, split)
			}
			if !bytes.Equal(payload, pristine) || !bytes.Equal(framed[0][xdr.Headroom:], bufs[0]) {
				t.Fatalf("fragSize=%d split=%v: a record mark was written into the payload", fragSize, split)
			}
			r := NewRecordReader(&got)
			rec, err := r.ReadRecord()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec, payload) {
				t.Fatalf("fragSize=%d split=%v: round trip corrupted", fragSize, split)
			}
		}
	}
}

func TestRecordVectoredEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	if err := w.write(nil, false); err != nil {
		t.Fatal(err)
	}
	if err := w.write([][]byte{nil, {}}, false); err != nil {
		t.Fatal(err)
	}
	var g xdr.Gather
	if err := w.write(g.Framed(), true); err != nil {
		t.Fatal(err)
	}
	r := NewRecordReader(&buf)
	for i := 0; i < 3; i++ {
		rec, err := r.ReadRecord()
		if err != nil {
			t.Fatal(err)
		}
		if len(rec) != 0 {
			t.Fatalf("record %d: got %d bytes", i, len(rec))
		}
	}
}
