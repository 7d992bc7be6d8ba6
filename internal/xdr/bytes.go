package xdr

import "bytes"

// Marshal encodes v into a fresh byte slice.
func Marshal(v Marshaler) ([]byte, error) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.Marshal(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal decodes v from data. Trailing bytes are not an error.
func Unmarshal(data []byte, v Unmarshaler) error {
	return NewBytesDecoder(data).Unmarshal(v)
}

// GatherMin is the size from which PutFixedOpaque hands an opaque to a
// Gather by reference: a page. Below it (launch arguments, batch
// entries) a copy costs less than one more span to write.
const GatherMin = 4 << 10

// RetainMax bounds what a connection's reusable buffers — a Gather, the
// record and staging buffers of the layers above — keep once a message
// is done: one grown past it is dropped, not reused.
const RetainMax = 8 << 20

// A Gather is an encode target that assembles a message as a list of
// spans instead of one contiguous buffer: what the Encoder writes is
// copied into the Gather's own buffer, except opaques of GatherMin
// bytes or more, which are kept by reference, so a bulk payload goes
// from the caller's slice to the transport without a staging copy.
// The zero value is ready to use.
type Gather struct {
	buf   []byte    // room for Prepend, then every copied byte in order
	head  int       // where the message starts in buf
	refs  []spanRef // where each referenced payload splices into buf
	spans [][]byte  // Spans' result
}

type spanRef struct {
	at int // the payload goes before buf[at]
	p  []byte
}

// Write appends a copy of p (io.Writer).
func (g *Gather) Write(p []byte) (int, error) {
	g.buf = append(g.buf, p...)
	return len(p), nil
}

// Reserve empties the Gather like Reset and sets n bytes aside in front
// of the message to come, for a header only known later (Prepend).
func (g *Gather) Reserve(n int) {
	g.Reset()
	g.buf = append(g.buf, make([]byte, n)...)
	g.head = n
}

// Prepend puts p directly in front of the message, in its first span,
// and reports whether p fit the room Reserve left.
func (g *Gather) Prepend(p []byte) bool {
	if len(p) > g.head {
		return false
	}
	g.head -= len(p)
	copy(g.buf[g.head:], p)
	return true
}

// Spans returns the message as spans in wire order. They alias the
// Gather's buffer and the referenced payloads, and are valid until the
// next Write or Reset.
func (g *Gather) Spans() [][]byte {
	g.spans = g.spans[:0]
	at := g.head
	for _, r := range g.refs {
		if r.at > at {
			g.spans = append(g.spans, g.buf[at:r.at])
		}
		g.spans, at = append(g.spans, r.p), r.at
	}
	if at < len(g.buf) {
		g.spans = append(g.spans, g.buf[at:])
	}
	return g.spans
}

// Reset empties the Gather for the next message, letting go of every
// referenced payload and of its own buffer if that grew past RetainMax.
func (g *Gather) Reset() {
	clear(g.refs)
	clear(g.spans)
	g.refs, g.head = g.refs[:0], 0
	if g.buf = g.buf[:0]; cap(g.buf) > RetainMax {
		g.buf = nil
	}
}
