package netsim

import (
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"
)

// A CountingConn wraps a stream transport and counts the bytes moved
// in each direction. The Cricket client uses the deltas around each
// RPC to charge path costs onto the virtual clock.
type CountingConn struct {
	conn    io.ReadWriteCloser
	read    atomic.Int64
	written atomic.Int64
}

// NewCountingConn wraps conn.
func NewCountingConn(conn io.ReadWriteCloser) *CountingConn {
	return &CountingConn{conn: conn}
}

// Read implements io.Reader.
func (c *CountingConn) Read(p []byte) (int, error) {
	n, err := c.conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// Write implements io.Writer.
func (c *CountingConn) Write(p []byte) (int, error) {
	n, err := c.conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// WriteBuffers writes v as one gathered write where the wrapped
// transport can (one writev on TCP), counting the bytes as Write does.
// net.Buffers knows only the net package's own connections: a wrapper
// must pass the vector on or every buffer becomes a write of its own.
func (c *CountingConn) WriteBuffers(v *net.Buffers) (int64, error) {
	n, err := writeBuffers(c.conn, v)
	c.written.Add(n)
	return n, err
}

// SetReadDeadline passes a read deadline on to the wrapped transport;
// one that takes none refuses with os.ErrNoDeadline.
func (c *CountingConn) SetReadDeadline(t time.Time) error { return setReadDeadline(c.conn, t) }

// Close implements io.Closer.
func (c *CountingConn) Close() error { return c.conn.Close() }

// writeBuffers hands v to w whole when w is itself a wrapper that
// passes gathered writes on, and otherwise leaves it to net.Buffers.
func writeBuffers(w io.Writer, v *net.Buffers) (int64, error) {
	if bw, ok := w.(interface {
		WriteBuffers(*net.Buffers) (int64, error)
	}); ok {
		return bw.WriteBuffers(v)
	}
	return v.WriteTo(w)
}

func setReadDeadline(conn io.ReadWriteCloser, t time.Time) error {
	if d, ok := conn.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(t)
	}
	return os.ErrNoDeadline
}

// BytesRead reports the cumulative bytes read.
func (c *CountingConn) BytesRead() int64 { return c.read.Load() }

// BytesWritten reports the cumulative bytes written.
func (c *CountingConn) BytesWritten() int64 { return c.written.Load() }

// Pipe returns an in-process full-duplex byte stream with counting on
// the client side. The server half is a plain transport; functional
// bytes flow for real while timing is simulated separately.
func Pipe() (client *CountingConn, server net.Conn) {
	c, s := net.Pipe()
	return NewCountingConn(c), s
}
