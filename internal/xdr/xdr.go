// Package xdr implements the External Data Representation standard
// (XDR, RFC 4506) used as the wire format by ONC RPC (RFC 5531).
//
// XDR is a big-endian, 4-byte-aligned binary format. Every primitive
// occupies a multiple of four bytes; variable-length data is preceded
// by an unsigned 32-bit length and padded with zero bytes to the next
// 4-byte boundary.
//
// The package provides a streaming Encoder and Decoder plus the
// Marshaler/Unmarshaler interfaces that composite types implement to
// participate in encoding. All limits are explicit: decoders never
// allocate more than the configured maximum for a variable-length
// item, nor, when decoding a record held in memory (ResetBytes), more
// than the bytes the record still holds, which protects servers from
// hostile length prefixes.
package xdr

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// Alignment is the XDR block size: every encoded item occupies a
// multiple of this many bytes (RFC 4506 §3).
const Alignment = 4

// DefaultMaxSize bounds variable-length opaque/string/array items when
// no explicit maximum is given. Cricket transfers device memory inline
// in RPC arguments, so the bound is generous (1 GiB).
const DefaultMaxSize = 1 << 30

// Errors returned by the package. Decoding errors wrap these sentinel
// values so callers can classify failures with errors.Is.
var (
	// ErrTooLong reports a variable-length item whose declared length
	// exceeds the allowed maximum.
	ErrTooLong = errors.New("xdr: variable-length item exceeds maximum")
	// ErrBadBool reports a boolean with an encoding other than 0 or 1.
	ErrBadBool = errors.New("xdr: boolean not 0 or 1")
	// ErrBadPadding reports nonzero bytes in the padding that aligns a
	// variable-length item to a 4-byte boundary.
	ErrBadPadding = errors.New("xdr: nonzero padding")
)

// Marshaler is implemented by composite types that can encode
// themselves in XDR.
type Marshaler interface {
	MarshalXDR(e *Encoder) error
}

// Unmarshaler is implemented by composite types that can decode
// themselves from XDR.
type Unmarshaler interface {
	UnmarshalXDR(d *Decoder) error
}

var zeroPad [Alignment]byte

// Pad returns the number of zero bytes required to align n to the XDR
// block size.
func Pad(n int) int {
	return (Alignment - n%Alignment) % Alignment
}

// An Encoder writes XDR-encoded data to an underlying io.Writer.
// Methods record the first error encountered; subsequent calls are
// no-ops, so callers may encode a full structure and check the error
// once via Err or by using the error returned from the last call.
type Encoder struct {
	w   io.Writer
	g   *Gather // w, when it is a gather sink
	n   int64   // bytes written
	err error
	buf [8]byte
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{}
	e.Reset(w)
	return e
}

// Reset discards state and retargets the encoder at w.
func (e *Encoder) Reset(w io.Writer) {
	e.w = w
	e.g, _ = w.(*Gather)
	e.n = 0
	e.err = nil
}

// Len reports the number of bytes successfully written.
func (e *Encoder) Len() int64 { return e.n }

// Err reports the first error encountered while encoding.
func (e *Encoder) Err() error { return e.err }

func (e *Encoder) write(p []byte) error {
	if e.err != nil {
		return e.err
	}
	n, err := e.w.Write(p)
	e.n += int64(n)
	if err != nil {
		e.err = fmt.Errorf("xdr: write: %w", err)
	}
	return e.err
}

// PutUint32 encodes an unsigned 32-bit integer.
func (e *Encoder) PutUint32(v uint32) error {
	e.buf[0] = byte(v >> 24)
	e.buf[1] = byte(v >> 16)
	e.buf[2] = byte(v >> 8)
	e.buf[3] = byte(v)
	return e.write(e.buf[:4])
}

// PutInt32 encodes a signed 32-bit integer.
func (e *Encoder) PutInt32(v int32) error { return e.PutUint32(uint32(v)) }

// PutUint64 encodes an unsigned 64-bit integer ("unsigned hyper").
func (e *Encoder) PutUint64(v uint64) error {
	e.buf[0] = byte(v >> 56)
	e.buf[1] = byte(v >> 48)
	e.buf[2] = byte(v >> 40)
	e.buf[3] = byte(v >> 32)
	e.buf[4] = byte(v >> 24)
	e.buf[5] = byte(v >> 16)
	e.buf[6] = byte(v >> 8)
	e.buf[7] = byte(v)
	return e.write(e.buf[:8])
}

// PutInt64 encodes a signed 64-bit integer ("hyper").
func (e *Encoder) PutInt64(v int64) error { return e.PutUint64(uint64(v)) }

// PutBool encodes a boolean as 0 or 1.
func (e *Encoder) PutBool(v bool) error {
	if v {
		return e.PutUint32(1)
	}
	return e.PutUint32(0)
}

// PutFloat32 encodes an IEEE-754 single-precision float.
func (e *Encoder) PutFloat32(v float32) error {
	return e.PutUint32(math.Float32bits(v))
}

// PutFloat64 encodes an IEEE-754 double-precision float.
func (e *Encoder) PutFloat64(v float64) error {
	return e.PutUint64(math.Float64bits(v))
}

// PutFixedOpaque encodes fixed-length opaque data: the bytes of p
// followed by zero padding to a 4-byte boundary. The length itself is
// not encoded; the receiver must know it. An encoder writing to a
// Gather hands it a p of GatherMin bytes or more by reference: the
// caller must leave p unchanged until the gathered spans are written.
func (e *Encoder) PutFixedOpaque(p []byte) error {
	if e.g != nil && len(p) >= GatherMin && e.err == nil {
		e.g.ref(p)
		e.n += int64(len(p))
	} else if err := e.write(p); err != nil {
		return err
	}
	if pad := Pad(len(p)); pad > 0 {
		return e.write(zeroPad[:pad])
	}
	return e.err
}

// PutOpaque encodes variable-length opaque data: length prefix, bytes,
// zero padding.
func (e *Encoder) PutOpaque(p []byte) error {
	if len(p) > math.MaxUint32 {
		e.err = ErrTooLong
		return e.err
	}
	if err := e.PutUint32(uint32(len(p))); err != nil {
		return err
	}
	return e.PutFixedOpaque(p)
}

// PutString encodes a string as variable-length opaque data.
func (e *Encoder) PutString(s string) error {
	if len(s) > math.MaxUint32 {
		e.err = ErrTooLong
		return e.err
	}
	if err := e.PutUint32(uint32(len(s))); err != nil {
		return err
	}
	if err := e.write([]byte(s)); err != nil {
		return err
	}
	if pad := Pad(len(s)); pad > 0 {
		return e.write(zeroPad[:pad])
	}
	return e.err
}

// A Decoder reads XDR-encoded data from an underlying io.Reader, or
// from a record held in memory (NewBytesDecoder, ResetBytes). Like
// Encoder it is sticky-error: after the first failure every method
// returns the same error.
type Decoder struct {
	r       io.Reader // nil when decoding data
	data    []byte    // the record; n is the cursor into it
	borrow  bool      // variable-length items are views of data
	n       int64
	err     error
	maxSize int
	buf     [8]byte
}

// NewDecoder returns a Decoder reading from r with the default
// variable-length limit.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, maxSize: DefaultMaxSize}
}

// NewBytesDecoder returns a Decoder reading the record b with the
// default variable-length limit.
func NewBytesDecoder(b []byte) *Decoder {
	return &Decoder{data: b, maxSize: DefaultMaxSize}
}

// Reset discards state and retargets the decoder at r, keeping the
// configured maximum item size.
func (d *Decoder) Reset(r io.Reader) {
	*d = Decoder{r: r, maxSize: d.maxSize}
}

// ResetBytes discards state and retargets the decoder at the record
// b, keeping the configured maximum item size. Decoded items are
// copies of b's bytes unless Borrow is called.
func (d *Decoder) ResetBytes(b []byte) {
	*d = Decoder{data: b, maxSize: d.maxSize}
}

// Borrow makes Opaque and OpaqueInto return views of the record being
// decoded instead of copies, until the next Reset or ResetBytes: the
// caller must be done with them before the record's buffer is reused.
// It has no effect on a decoder reading from an io.Reader.
func (d *Decoder) Borrow() {
	d.borrow = d.r == nil
}

// SetMaxSize bounds the length of any variable-length item the decoder
// will accept. It panics if max is not positive.
func (d *Decoder) SetMaxSize(max int) {
	if max <= 0 {
		panic("xdr: SetMaxSize with non-positive max")
	}
	d.maxSize = max
}

// Len reports the number of bytes successfully consumed.
func (d *Decoder) Len() int64 { return d.n }

// Err reports the first error encountered while decoding.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) read(p []byte) error {
	if d.err != nil {
		return d.err
	}
	var n int
	var err error
	if d.r != nil {
		n, err = io.ReadFull(d.r, p)
	} else if n = copy(p, d.data[d.n:]); n < len(p) {
		if err = io.ErrUnexpectedEOF; n == 0 {
			err = io.EOF
		}
	}
	d.n += int64(n)
	if err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			d.err = fmt.Errorf("xdr: short read after %d bytes: %w", d.n, err)
		} else {
			d.err = fmt.Errorf("xdr: read: %w", err)
		}
	}
	return d.err
}

// Uint32 decodes an unsigned 32-bit integer.
func (d *Decoder) Uint32() (uint32, error) {
	if err := d.read(d.buf[:4]); err != nil {
		return 0, err
	}
	return uint32(d.buf[0])<<24 | uint32(d.buf[1])<<16 | uint32(d.buf[2])<<8 | uint32(d.buf[3]), nil
}

// Int32 decodes a signed 32-bit integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes an unsigned hyper.
func (d *Decoder) Uint64() (uint64, error) {
	if err := d.read(d.buf[:8]); err != nil {
		return 0, err
	}
	return uint64(d.buf[0])<<56 | uint64(d.buf[1])<<48 | uint64(d.buf[2])<<40 | uint64(d.buf[3])<<32 |
		uint64(d.buf[4])<<24 | uint64(d.buf[5])<<16 | uint64(d.buf[6])<<8 | uint64(d.buf[7]), nil
}

// Int64 decodes a hyper.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes a boolean, rejecting encodings other than 0 and 1.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		d.err = fmt.Errorf("%w: %d", ErrBadBool, v)
		return false, d.err
	}
}

// Float32 decodes an IEEE-754 single-precision float.
func (d *Decoder) Float32() (float32, error) {
	v, err := d.Uint32()
	return math.Float32frombits(v), err
}

// Float64 decodes an IEEE-754 double-precision float.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}

func (d *Decoder) readPad(n int) error {
	pad := Pad(n)
	if pad == 0 {
		return d.err
	}
	var p [Alignment]byte
	if err := d.read(p[:pad]); err != nil {
		return err
	}
	for _, b := range p[:pad] {
		if b != 0 {
			d.err = ErrBadPadding
			return d.err
		}
	}
	return nil
}

// FixedOpaque decodes fixed-length opaque data into p and consumes the
// alignment padding.
func (d *Decoder) FixedOpaque(p []byte) error {
	if err := d.read(p); err != nil {
		return err
	}
	return d.readPad(len(p))
}

// ArrayLen decodes the length prefix of a variable-length item whose
// elements each take at least minElemBytes on the wire, and holds it to
// the configured maximum and, when decoding a record, to the bytes the
// record has left: a forged prefix fails as the short read it is
// before anything is allocated for it.
func (d *Decoder) ArrayLen(minElemBytes int) (int, error) {
	n, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	size := int64(n) * int64(minElemBytes)
	if size > int64(d.maxSize) {
		d.err = fmt.Errorf("%w: %d items of %d bytes > %d", ErrTooLong, n, minElemBytes, d.maxSize)
	} else if d.r == nil && size > int64(len(d.data))-d.n {
		d.err = fmt.Errorf("xdr: short read after %d bytes: %w", d.n, io.ErrUnexpectedEOF)
	}
	return int(n), d.err
}

// Opaque decodes variable-length opaque data, enforcing the configured
// maximum item size.
func (d *Decoder) Opaque() ([]byte, error) {
	return d.OpaqueInto(nil)
}

// OpaqueInto decodes variable-length opaque data into dst when it fits
// (avoiding an allocation) and otherwise allocates. It returns the
// decoded bytes.
func (d *Decoder) OpaqueInto(dst []byte) ([]byte, error) {
	n, err := d.ArrayLen(1)
	if err != nil {
		return nil, err
	}
	var p []byte
	if d.borrow {
		end := d.n + int64(n)
		p, d.n = d.data[d.n:end:end], end
		return p, d.readPad(n)
	}
	if dst != nil && n <= cap(dst) {
		p = dst[:n]
	} else {
		p = make([]byte, n)
	}
	if err := d.FixedOpaque(p); err != nil {
		return nil, err
	}
	return p, nil
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	p, err := d.Opaque()
	if err != nil {
		return "", err
	}
	return string(p), nil
}
