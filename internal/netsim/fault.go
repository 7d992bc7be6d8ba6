package netsim

import (
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"
)

// This file implements deterministic transport fault injection. It
// grew out of the ad-hoc failing connections in the ONC RPC fault
// tests; promoting it here lets the oncrpc tests, the cricket session
// tests, the end-to-end suite, and cmd/benchharness share one
// injector and measure recovery latency under identical schedules.

// FaultKind selects how a FaultConn misbehaves when a fault trips.
type FaultKind int

// Fault kinds.
const (
	// FaultDrop kills the transport mid-stream: the byte crossing the
	// threshold is the last one delivered, the inner connection is
	// closed, and every subsequent operation fails immediately.
	FaultDrop FaultKind = iota
	// FaultStall blocks the operation that crosses the threshold for
	// the fault's Stall duration, then lets it proceed. It models a
	// wedged peer or a congested path rather than a dead one.
	FaultStall
	// FaultClose abruptly closes the inner connection when the
	// threshold is crossed. Unlike FaultDrop the FaultConn itself
	// keeps forwarding, so callers observe the inner transport's own
	// post-close errors (a RST-like failure instead of a clean EOF).
	FaultClose
)

func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultStall:
		return "stall"
	case FaultClose:
		return "close"
	}
	return "unknown"
}

// A Fault is one scheduled failure: it trips when the connection has
// moved AfterBytes total bytes (reads plus writes).
type Fault struct {
	AfterBytes int64
	Kind       FaultKind
	// Stall is the block duration for FaultStall; ignored otherwise.
	Stall time.Duration
}

// A FaultConn wraps a stream transport and injects failures from a
// schedule of byte-offset faults. It is safe for concurrent use by a
// reader and a writer goroutine, matching net.Conn conventions.
type FaultConn struct {
	inner io.ReadWriteCloser

	mu      sync.Mutex
	queue   []Fault // sorted by AfterBytes, consumed front to back
	total   int64   // bytes moved in either direction
	dropped bool    // a FaultDrop tripped; everything fails now
	trips   int
}

// NewFaultConn wraps inner with the given fault schedule. Faults trip
// in byte-offset order regardless of argument order.
func NewFaultConn(inner io.ReadWriteCloser, faults ...Fault) *FaultConn {
	q := append([]Fault(nil), faults...)
	sort.SliceStable(q, func(i, j int) bool { return q[i].AfterBytes < q[j].AfterBytes })
	return &FaultConn{inner: inner, queue: q}
}

// Schedule builds n faults of one kind with pseudo-random spacing
// averaging meanBytes apart, drawn from a deterministic seeded
// generator — the same seed always yields the same failure pattern,
// so recovery measurements are reproducible.
func Schedule(seed int64, n int, meanBytes int64, kind FaultKind, stall time.Duration) []Fault {
	rng := rand.New(rand.NewSource(seed))
	faults := make([]Fault, 0, n)
	var at int64
	for i := 0; i < n; i++ {
		gap := int64(rng.ExpFloat64() * float64(meanBytes))
		if gap < 1 {
			gap = 1
		}
		at += gap
		faults = append(faults, Fault{AfterBytes: at, Kind: kind, Stall: stall})
	}
	return faults
}

// Trips reports how many faults have tripped so far.
func (c *FaultConn) Trips() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trips
}

// advance accounts n moved bytes and returns the portion of n that may
// be delivered (short for a mid-operation drop), a stall to apply, and
// whether the transport died. Called with c.mu held; the caller must
// release the lock before sleeping or touching the inner conn.
func (c *FaultConn) advance(n int) (allowed int, stall time.Duration, drop bool) {
	allowed = n
	for len(c.queue) > 0 && c.total+int64(allowed) >= c.queue[0].AfterBytes {
		f := c.queue[0]
		c.queue = c.queue[1:]
		c.trips++
		switch f.Kind {
		case FaultStall:
			stall += f.Stall
		case FaultClose:
			drop = false
			c.total += int64(allowed)
			// Close without marking dropped: the inner conn's own
			// errors surface on later operations.
			go c.inner.Close()
			return allowed, stall, false
		case FaultDrop:
			allowed = int(f.AfterBytes - c.total)
			if allowed < 0 {
				allowed = 0
			}
			c.dropped = true
			c.total += int64(allowed)
			return allowed, stall, true
		}
	}
	c.total += int64(allowed)
	return allowed, stall, false
}

// Write implements io.Writer, delivering bytes up to the next drop
// threshold and failing with io.ErrClosedPipe once dropped.
func (c *FaultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.dropped {
		c.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	allowed, stall, drop := c.advance(len(p))
	c.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	if drop {
		var n int
		if allowed > 0 {
			n, _ = c.inner.Write(p[:allowed])
		}
		c.inner.Close()
		return n, io.ErrClosedPipe
	}
	return c.inner.Write(p)
}

// WriteBuffers is Write for a gathered write (see
// CountingConn.WriteBuffers). A vector that ends before the next fault
// goes on to the wrapped transport whole; one a fault falls inside is
// written buffer by buffer, so that Write decides where it is cut.
func (c *FaultConn) WriteBuffers(v *net.Buffers) (int64, error) {
	total := int64(0)
	for _, b := range *v {
		total += int64(len(b))
	}
	c.mu.Lock()
	whole := !c.dropped && (len(c.queue) == 0 || c.total+total < c.queue[0].AfterBytes)
	if whole {
		c.total += total
	}
	c.mu.Unlock()
	if whole {
		return writeBuffers(c.inner, v)
	}
	return v.WriteTo(c)
}

// SetReadDeadline passes a read deadline on to the wrapped transport
// (see CountingConn.SetReadDeadline). A stall is not cut short by it.
func (c *FaultConn) SetReadDeadline(t time.Time) error { return setReadDeadline(c.inner, t) }

// Read implements io.Reader. A drop threshold crossed by a read lets
// the bytes up to the threshold through, then kills the transport.
func (c *FaultConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.dropped {
		c.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	c.mu.Unlock()
	n, err := c.inner.Read(p)
	c.mu.Lock()
	allowed, stall, drop := c.advance(n)
	c.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	if drop {
		c.inner.Close()
		if allowed > 0 {
			return allowed, nil // deliver up to the threshold first
		}
		return 0, io.ErrClosedPipe
	}
	return n, err
}

// Close implements io.Closer.
func (c *FaultConn) Close() error { return c.inner.Close() }
