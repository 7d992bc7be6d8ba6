package xdr

// GatherMin is the size from which PutFixedOpaque hands an opaque to a
// Gather by reference: a page. Below it (launch arguments, batch
// entries) a copy costs less than one more span to write.
const GatherMin = 4 << 10

// RetainMax bounds what a connection's reusable buffers — a Gather, the
// record and staging buffers of the layers above — keep once a message
// is done: one grown past it is dropped, not reused.
const RetainMax = 8 << 20

// Headroom is the room a Gather keeps in front of its message for the
// transport's frame mark (an RFC 5531 record mark is four bytes), so
// that mark and message leave in one write without being staged
// together first.
const Headroom = 4

// A Gather is an encode target that assembles a message as a list of
// spans instead of one contiguous buffer: what the Encoder writes is
// copied into the Gather's own buffer, except opaques of GatherMin
// bytes or more, which are kept by reference, so a bulk payload goes
// from the caller's slice to the transport without a staging copy.
// The zero value is ready to use.
type Gather struct {
	buf   []byte    // Headroom, room for Prepend, then every copied byte in order
	head  int       // where the message starts in buf; zero until something is put in
	refs  []spanRef // where each referenced payload splices into buf
	spans [][]byte  // Framed's result
}

type spanRef struct {
	at int // the payload goes before buf[at]
	p  []byte
}

// open sets the headroom and n more bytes aside in a Gather that is
// still empty.
func (g *Gather) open(n int) {
	if g.head != 0 {
		return
	}
	if g.head = Headroom + n; g.head > cap(g.buf) {
		g.buf = make([]byte, g.head)
	}
	g.buf = g.buf[:g.head]
}

// Write appends a copy of p (io.Writer).
func (g *Gather) Write(p []byte) (int, error) {
	g.open(0)
	g.buf = append(g.buf, p...)
	return len(p), nil
}

// ref splices p into the message by reference.
func (g *Gather) ref(p []byte) {
	g.open(0)
	g.refs = append(g.refs, spanRef{len(g.buf), p})
}

// Reserve empties the Gather like Reset and sets n bytes aside in front
// of the message to come, for a header only known later (Prepend).
func (g *Gather) Reserve(n int) {
	g.Reset()
	g.open(n)
}

// Prepend puts p directly in front of the message, in its first span,
// and reports whether p fit the room Reserve left.
func (g *Gather) Prepend(p []byte) bool {
	if len(p) > g.head-Headroom {
		return false
	}
	g.head -= len(p)
	copy(g.buf[g.head:], p)
	return true
}

// Framed returns the message as spans in wire order, the first of them
// led by Headroom bytes that are the caller's to fill in. The spans
// alias the Gather's buffer and the referenced payloads, and are valid
// until the next Write or Reset.
func (g *Gather) Framed() [][]byte {
	g.open(0)
	g.spans = g.spans[:0]
	at := g.head - Headroom
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
