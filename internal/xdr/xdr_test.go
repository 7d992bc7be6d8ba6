package xdr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPad(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 3}, {2, 2}, {3, 1}, {4, 0}, {5, 3}, {8, 0}, {9, 3},
	}
	for _, c := range cases {
		if got := Pad(c.n); got != c.want {
			t.Errorf("Pad(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// opaqueWire is the encoded size of a variable-length opaque of n
// bytes: length prefix, data, padding.
func opaqueWire(n int) int { return 4 + n + Pad(n) }

func roundTrip(t *testing.T, enc func(*Encoder) error, dec func(*Decoder) error) {
	t.Helper()
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := enc(e); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if buf.Len()%Alignment != 0 {
		t.Fatalf("encoded length %d not 4-aligned", buf.Len())
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err := dec(d); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Len() != int64(buf.Len()) {
		t.Fatalf("decoder consumed %d of %d bytes", d.Len(), buf.Len())
	}
}

func TestUint32RoundTrip(t *testing.T) {
	for _, v := range []uint32{0, 1, 0x7fffffff, 0x80000000, math.MaxUint32} {
		roundTrip(t,
			func(e *Encoder) error { return e.PutUint32(v) },
			func(d *Decoder) error {
				got, err := d.Uint32()
				if err != nil {
					return err
				}
				if got != v {
					t.Errorf("got %d, want %d", got, v)
				}
				return nil
			})
	}
}

func TestInt32BigEndianWire(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.PutInt32(-1); err != nil {
		t.Fatal(err)
	}
	want := []byte{0xff, 0xff, 0xff, 0xff}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("wire = %x, want %x", buf.Bytes(), want)
	}
	buf.Reset()
	if err := e.PutUint32(0x01020304); err != nil {
		t.Fatal(err)
	}
	// Encoder is sticky but Reset was not called; re-create for clarity.
	e = NewEncoder(&buf)
	buf.Reset()
	if err := e.PutUint32(0x01020304); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), []byte{1, 2, 3, 4}) {
		t.Fatalf("wire = %x, want 01020304", buf.Bytes())
	}
}

func TestHyperRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, math.MaxInt64, math.MaxUint64, 0x0102030405060708} {
		roundTrip(t,
			func(e *Encoder) error { return e.PutUint64(v) },
			func(d *Decoder) error {
				got, err := d.Uint64()
				if err != nil {
					return err
				}
				if got != v {
					t.Errorf("got %d, want %d", got, v)
				}
				return nil
			})
	}
}

func TestBool(t *testing.T) {
	for _, v := range []bool{true, false} {
		roundTrip(t,
			func(e *Encoder) error { return e.PutBool(v) },
			func(d *Decoder) error {
				got, err := d.Bool()
				if err != nil {
					return err
				}
				if got != v {
					t.Errorf("got %v, want %v", got, v)
				}
				return nil
			})
	}
}

func TestBoolRejectsGarbage(t *testing.T) {
	d := NewDecoder(bytes.NewReader([]byte{0, 0, 0, 2}))
	if _, err := d.Bool(); !errors.Is(err, ErrBadBool) {
		t.Fatalf("err = %v, want ErrBadBool", err)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -2.75, math.Pi, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64} {
		roundTrip(t,
			func(e *Encoder) error { return e.PutFloat64(v) },
			func(d *Decoder) error {
				got, err := d.Float64()
				if err != nil {
					return err
				}
				if got != v {
					t.Errorf("got %v, want %v", got, v)
				}
				return nil
			})
	}
	roundTrip(t,
		func(e *Encoder) error { return e.PutFloat32(float32(math.Pi)) },
		func(d *Decoder) error {
			got, err := d.Float32()
			if err != nil {
				return err
			}
			if got != float32(math.Pi) {
				t.Errorf("got %v", got)
			}
			return nil
		})
}

func TestFloatNaN(t *testing.T) {
	roundTrip(t,
		func(e *Encoder) error { return e.PutFloat64(math.NaN()) },
		func(d *Decoder) error {
			got, err := d.Float64()
			if err != nil {
				return err
			}
			if !math.IsNaN(got) {
				t.Errorf("got %v, want NaN", got)
			}
			return nil
		})
}

func TestOpaqueRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 100, 4096} {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i * 7)
		}
		roundTrip(t,
			func(e *Encoder) error { return e.PutOpaque(p) },
			func(d *Decoder) error {
				got, err := d.Opaque()
				if err != nil {
					return err
				}
				if !bytes.Equal(got, p) {
					t.Errorf("opaque mismatch at n=%d", n)
				}
				return nil
			})
	}
}

func TestFixedOpaquePadding(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.PutFixedOpaque([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 0}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("wire = %x, want %x", buf.Bytes(), want)
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	got := make([]byte, 3)
	if err := d.FixedOpaque(got); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 4 {
		t.Fatalf("consumed %d, want 4", d.Len())
	}
}

func TestNonzeroPaddingRejected(t *testing.T) {
	// opaque<> of length 1 with nonzero pad byte.
	wire := []byte{0, 0, 0, 1, 0xaa, 0xff, 0, 0}
	d := NewDecoder(bytes.NewReader(wire))
	if _, err := d.Opaque(); !errors.Is(err, ErrBadPadding) {
		t.Fatalf("err = %v, want ErrBadPadding", err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "abc", "abcd", "hello world", strings.Repeat("x", 1000), "unicode: héllo ☃"} {
		roundTrip(t,
			func(e *Encoder) error { return e.PutString(s) },
			func(d *Decoder) error {
				got, err := d.String()
				if err != nil {
					return err
				}
				if got != s {
					t.Errorf("got %q, want %q", got, s)
				}
				return nil
			})
	}
}

func TestMaxSizeEnforced(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.PutOpaque(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	d.SetMaxSize(64)
	if _, err := d.Opaque(); !errors.Is(err, ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
}

func TestHostileLengthDoesNotAllocate(t *testing.T) {
	// A 4 GiB length prefix with no data must fail fast via the max
	// size check, not by attempting a huge allocation then EOF.
	wire := []byte{0xff, 0xff, 0xff, 0xff}
	d := NewDecoder(bytes.NewReader(wire))
	d.SetMaxSize(1 << 20)
	if _, err := d.Opaque(); !errors.Is(err, ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
}

func TestOpaqueInto(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	src := []byte{9, 8, 7, 6, 5}
	if err := e.PutOpaque(src); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	dst := make([]byte, 0, 16)
	got, err := d.OpaqueInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("got %v", got)
	}
	if &got[0] != &dst[:1][0] {
		t.Error("OpaqueInto did not reuse the provided buffer")
	}
	// Too small a buffer must still succeed by allocating.
	d = NewDecoder(bytes.NewReader(buf.Bytes()))
	got, err = d.OpaqueInto(make([]byte, 0, 2))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("got %v, err %v", got, err)
	}
}

// Counted arrays the way rpcgen emits them: a length prefix, read with
// ArrayLen, then the elements.
func TestSlices(t *testing.T) {
	u64 := []uint64{4, 5, math.MaxUint64}
	f64 := []float64{1.5, -2.5, math.Pi}
	roundTrip(t,
		func(e *Encoder) error {
			e.PutUint32(uint32(len(u64)))
			for _, v := range u64 {
				e.PutUint64(v)
			}
			e.PutUint32(uint32(len(f64)))
			for _, v := range f64 {
				e.PutFloat64(v)
			}
			return e.Err()
		},
		func(d *Decoder) error {
			n, err := d.ArrayLen(8)
			if err != nil || n != len(u64) {
				t.Fatalf("u64 count = %d, %v", n, err)
			}
			for i := range u64 {
				if v, _ := d.Uint64(); v != u64[i] {
					t.Errorf("u64[%d] = %d", i, v)
				}
			}
			if n, err = d.ArrayLen(8); err != nil || n != len(f64) {
				t.Fatalf("f64 count = %d, %v", n, err)
			}
			for i := range f64 {
				if v, _ := d.Float64(); v != f64[i] {
					t.Errorf("f64[%d] = %g", i, v)
				}
			}
			return d.Err()
		})
}

// An empty array is its count alone, and the last thing a record may
// hold: ArrayLen asks for no bytes beyond the prefix.
func TestEmptySlices(t *testing.T) {
	d := NewBytesDecoder([]byte{0, 0, 0, 0})
	if n, err := d.ArrayLen(4); err != nil || n != 0 {
		t.Fatalf("ArrayLen = %d, %v", n, err)
	}
	// A count the record's remaining bytes cover exactly is accepted.
	d.ResetBytes([]byte{0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 9})
	if n, err := d.ArrayLen(4); err != nil || n != 2 {
		t.Fatalf("ArrayLen = %d, %v", n, err)
	}
	// One more than they cover is the short read.
	d.ResetBytes([]byte{0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 9})
	if _, err := d.ArrayLen(4); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a short read", err)
	}
}

type pair struct {
	A uint32
	B string
}

func (p *pair) MarshalXDR(e *Encoder) error {
	e.PutUint32(p.A)
	return e.PutString(p.B)
}

func (p *pair) UnmarshalXDR(d *Decoder) error {
	var err error
	if p.A, err = d.Uint32(); err != nil {
		return err
	}
	p.B, err = d.String()
	return err
}

func TestMarshalUnmarshalBytes(t *testing.T) {
	in := &pair{A: 42, B: "cricket"}
	var buf bytes.Buffer
	if err := in.MarshalXDR(NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	var out pair
	if err := out.UnmarshalXDR(NewBytesDecoder(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if out != *in {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

func TestStickyErrors(t *testing.T) {
	// Encoder: a writer that fails keeps failing.
	e := NewEncoder(failWriter{})
	if err := e.PutUint32(1); err == nil {
		t.Fatal("want error from failWriter")
	}
	first := e.Err()
	if err := e.PutString("more"); err != first {
		t.Fatalf("sticky error changed: %v vs %v", err, first)
	}
	// Decoder: short input.
	d := NewDecoder(bytes.NewReader([]byte{0, 0}))
	if _, err := d.Uint32(); err == nil {
		t.Fatal("want short-read error")
	}
	firstD := d.Err()
	if _, err := d.Uint32(); err != firstD {
		t.Fatalf("sticky error changed")
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(failWriter{})
	_ = e.PutUint32(1)
	var buf bytes.Buffer
	e.Reset(&buf)
	if e.Err() != nil || e.Len() != 0 {
		t.Fatal("Reset did not clear state")
	}
	if err := e.PutUint32(5); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderReset(t *testing.T) {
	d := NewDecoder(bytes.NewReader(nil))
	_, _ = d.Uint32()
	d.Reset(bytes.NewReader([]byte{0, 0, 0, 5}))
	v, err := d.Uint32()
	if err != nil || v != 5 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

func TestShortReadReportsUnexpectedEOF(t *testing.T) {
	d := NewDecoder(bytes.NewReader([]byte{0, 0, 0, 8, 1, 2}))
	if _, err := d.Opaque(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want wrapped ErrUnexpectedEOF", err)
	}
}

// Property: every opaque payload round-trips and its encoding is
// 4-aligned with the documented length.
func TestQuickOpaqueRoundTrip(t *testing.T) {
	f := func(p []byte) bool {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		if err := e.PutOpaque(p); err != nil {
			return false
		}
		if buf.Len() != opaqueWire(len(p)) {
			return false
		}
		d := NewDecoder(bytes.NewReader(buf.Bytes()))
		got, err := d.Opaque()
		return err == nil && bytes.Equal(got, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: integers of all widths round-trip.
func TestQuickIntegerRoundTrip(t *testing.T) {
	f := func(a uint32, b int32, c uint64, d int64) bool {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.PutUint32(a)
		e.PutInt32(b)
		e.PutUint64(c)
		if err := e.PutInt64(d); err != nil {
			return false
		}
		dec := NewDecoder(bytes.NewReader(buf.Bytes()))
		ga, _ := dec.Uint32()
		gb, _ := dec.Int32()
		gc, _ := dec.Uint64()
		gd, err := dec.Int64()
		return err == nil && ga == a && gb == b && gc == c && gd == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: strings round-trip (including arbitrary bytes, since XDR
// strings are opaque).
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		if err := e.PutString(s); err != nil {
			return false
		}
		d := NewDecoder(bytes.NewReader(buf.Bytes()))
		got, err := d.String()
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: float64 bit patterns survive (NaN payloads included).
func TestQuickFloatBits(t *testing.T) {
	f := func(bits uint64) bool {
		v := math.Float64frombits(bits)
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		if err := e.PutFloat64(v); err != nil {
			return false
		}
		d := NewDecoder(bytes.NewReader(buf.Bytes()))
		got, err := d.Float64()
		return err == nil && math.Float64bits(got) == bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeUint32(b *testing.B) {
	e := NewEncoder(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.PutUint32(uint32(i))
	}
}

func BenchmarkOpaqueRoundTrip4K(b *testing.B) {
	p := make([]byte, 4096)
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	d := NewDecoder(nil)
	dst := make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		e.Reset(&buf)
		_ = e.PutOpaque(p)
		d.Reset(bytes.NewReader(buf.Bytes()))
		if _, err := d.OpaqueInto(dst); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: decoding arbitrary bytes as any sequence of types never
// panics; it either succeeds or errors.
func TestQuickDecoderNeverPanics(t *testing.T) {
	f := func(data []byte, ops []uint8) bool {
		d := NewDecoder(bytes.NewReader(data))
		d.SetMaxSize(1 << 16)
		for _, op := range ops {
			switch op % 9 {
			case 0:
				d.Uint32()
			case 1:
				d.Int32()
			case 2:
				d.Uint64()
			case 3:
				d.Bool()
			case 4:
				d.Float32()
			case 5:
				d.Float64()
			case 6:
				d.String()
			case 7:
				d.Opaque()
			case 8:
				d.ArrayLen(4)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// decodeOps runs a fixed op sequence and renders every result, so two
// decoders over the same bytes can be compared.
func decodeOps(d *Decoder, ops []uint8) string {
	var sb strings.Builder
	for _, op := range ops {
		var v any
		var err error
		switch op % 7 {
		case 0:
			v, err = d.Uint32()
		case 1:
			v, err = d.Uint64()
		case 2:
			v, err = d.Bool()
		case 3:
			v, err = d.String()
		case 4:
			v, err = d.Opaque()
		case 5:
			v, err = d.OpaqueInto(make([]byte, 0, 8))
		case 6:
			v, err = d.ArrayLen(8)
		}
		if err != nil {
			// Messages may differ (a forged length is refused before
			// the read is tried); what is an error must not.
			sb.WriteString("error")
			break
		}
		fmt.Fprintf(&sb, "%v;", v)
	}
	return sb.String()
}

// Property: a decoder over a record in memory, copying or borrowing,
// decodes exactly what a decoder over a reader of the same bytes does.
func TestQuickBytesDecoderMatchesReader(t *testing.T) {
	f := func(data []byte, ops []uint8) bool {
		rd := NewDecoder(bytes.NewReader(data))
		rd.SetMaxSize(1 << 16)
		want := decodeOps(rd, ops)
		cp := NewBytesDecoder(data)
		cp.SetMaxSize(1 << 16)
		bw := NewBytesDecoder(data)
		bw.SetMaxSize(1 << 16)
		bw.Borrow()
		return decodeOps(cp, ops) == want && decodeOps(bw, ops) == want && cp.Len() == bw.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// A well-formed message, so the property is not only about errors.
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.PutOpaque([]byte("hello"))
	e.PutString("wörld")
	e.PutUint32(1) // a one-element array of doubles
	e.PutFloat64(1.5)
	if !f(buf.Bytes(), []uint8{4, 3, 6, 1}) {
		t.Fatal("well-formed message decodes differently")
	}
}

// TestForgedLengthFailsBeforeAllocating: four bytes declaring a 1 GiB
// item are a short read, and nothing is allocated to find that out.
func TestForgedLengthFailsBeforeAllocating(t *testing.T) {
	wire := []byte{0x40, 0, 0, 0, 1, 2, 3, 4}
	decoders := map[string]func(*Decoder) error{
		"Opaque":      func(d *Decoder) error { _, err := d.Opaque(); return err },
		"OpaqueInto":  func(d *Decoder) error { _, err := d.OpaqueInto(make([]byte, 0, 4)); return err },
		"String":      func(d *Decoder) error { _, err := d.String(); return err },
		"ArrayLen(4)": func(d *Decoder) error { d.Uint32(); _, err := d.ArrayLen(4); return err },
		"ArrayLen(8)": func(d *Decoder) error { d.Uint32(); _, err := d.ArrayLen(8); return err },
	}
	// The array decoders get a count that fits the 1 GiB item limit
	// only as a count: 0x01020304 elements are 64 MiB and more.
	arrayWire := []byte{0, 0, 0, 0, 1, 2, 3, 4}
	for name, decode := range decoders {
		w := wire
		if strings.HasPrefix(name, "ArrayLen") {
			w = arrayWire
		}
		d := NewBytesDecoder(nil)
		var err error
		allocs := testing.AllocsPerRun(10, func() {
			d.ResetBytes(w)
			err = decode(d)
		})
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "short read") {
			t.Errorf("%s: err = %v, want the short-read error", name, err)
		}
		// Building the error is the only allocation left; the item's
		// would be one more, of 64 MiB or 1 GiB.
		if allocs > 4 {
			t.Errorf("%s: %v allocations on the failure path", name, allocs)
		}
	}
}

func TestBorrowYieldsViewsCopyDoesNot(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.PutOpaque([]byte{1, 2, 3, 4, 5})
	e.PutUint32(7)
	rec := buf.Bytes()

	d := NewBytesDecoder(rec)
	cp, err := d.Opaque()
	if err != nil {
		t.Fatal(err)
	}
	d.ResetBytes(rec)
	d.Borrow()
	view, err := d.Opaque()
	if err != nil {
		t.Fatal(err)
	}
	if after, err := d.Uint32(); err != nil || after != 7 {
		t.Fatalf("item after a borrowed opaque = %d, %v", after, err)
	}
	if cap(view) != len(view) {
		t.Errorf("view has cap %d beyond its %d bytes: an append would write into the record", cap(view), len(view))
	}
	rec[4] = 99 // first payload byte
	if view[0] != 99 {
		t.Error("borrowed opaque is not a view of the record")
	}
	if cp[0] != 1 {
		t.Error("Opaque without Borrow aliases the record")
	}
	d.ResetBytes(rec)
	if p, _ := d.Opaque(); &p[0] == &rec[4] {
		t.Error("ResetBytes kept Borrow on")
	}
	// On a reader there is nothing to borrow from.
	rd := NewDecoder(bytes.NewReader(rec))
	rd.Borrow()
	if p, err := rd.Opaque(); err != nil || p[0] != 99 {
		t.Fatalf("reader decoder after Borrow: %v, %v", p, err)
	}
}

func TestGatherReferencesLargeOpaques(t *testing.T) {
	small := bytes.Repeat([]byte{0xaa}, GatherMin-1)
	big := bytes.Repeat([]byte{0xbb}, GatherMin+1) // one pad byte short of aligned
	var g Gather
	var flat bytes.Buffer
	for _, w := range []io.Writer{&g, &flat} {
		e := NewEncoder(w)
		e.PutUint32(1)
		e.PutOpaque(small)
		e.PutOpaque(big)
		e.PutOpaque(big[:GatherMin])
		if err := e.PutUint32(2); err != nil {
			t.Fatal(err)
		}
		if e.Len() != int64(4+opaqueWire(len(small))+opaqueWire(len(big))+opaqueWire(GatherMin)+4) {
			t.Fatalf("encoder counted %d bytes", e.Len())
		}
	}
	// message strips the headroom Framed leads the first span with.
	message := func(g *Gather) [][]byte {
		spans := g.Framed()
		return append([][]byte{spans[0][Headroom:]}, spans[1:]...)
	}
	spans := message(&g)
	if !bytes.Equal(bytes.Join(spans, nil), flat.Bytes()) {
		t.Fatal("gathered spans differ from the staged encoding")
	}
	// prefix+small, big, pad+prefix, big[:GatherMin], trailer.
	if len(spans) != 5 || &spans[1][0] != &big[0] || &spans[3][0] != &big[0] || len(spans[3]) != GatherMin {
		t.Fatalf("%d spans; payloads of GatherMin bytes and more must be referenced, smaller ones copied", len(spans))
	}

	// A header prepended after the fact lands in the first span.
	var late Gather
	late.Reserve(8)
	e := NewEncoder(&late)
	e.PutUint32(3)
	e.PutOpaque(big)
	if late.Prepend(make([]byte, 9)) {
		t.Fatal("Prepend accepted more than Reserve set aside")
	}
	if !late.Prepend([]byte{0xca, 0xfe}) || !late.Prepend([]byte{0xbe}) {
		t.Fatal("Prepend refused what fits")
	}
	spans = message(&late)
	if want := append([]byte{0xbe, 0xca, 0xfe, 0, 0, 0, 3}, 0, 0, byte(len(big)>>8), byte(len(big))); len(spans) != 3 || !bytes.Equal(spans[0], want) {
		t.Fatalf("first of %d spans after Prepend: %x", len(spans), spans[0])
	}
	late.Reset()
	if spans = late.Framed(); late.Prepend([]byte{1}) || len(spans) != 1 || len(spans[0]) != Headroom {
		t.Fatal("Reset left room or bytes behind")
	}

	g.Reset()
	if spans = g.Framed(); len(spans) != 1 || len(spans[0]) != Headroom {
		t.Fatalf("%d spans after Reset, want the headroom alone", len(spans))
	}
	g.Reset()
	for _, r := range g.refs[:cap(g.refs)] {
		if r.p != nil {
			t.Fatal("Reset left a payload referenced")
		}
	}
	g.Write(make([]byte, RetainMax+1))
	g.Reset()
	if cap(g.buf) != 0 {
		t.Fatalf("Reset kept a %d-byte buffer, past RetainMax", cap(g.buf))
	}
}
