// Package netsim simulates the network path between a GPU application
// and a Cricket server: a physical link (bandwidth, propagation delay,
// MTU), per-endpoint network-stack cost models with virtio offload
// feature bits, and a shared virtual clock that accumulates simulated
// time.
//
// The paper's evaluation runs over 100 Gbit/s Ethernet (IPoIB on
// ConnectX-5) with an IP MTU of 9000, comparing native Linux, a Linux
// VM, and the RustyHermit and Unikraft unikernels, whose network
// stacks differ in which hardware offloads (TSO, TX/RX checksum,
// scatter-gather, merged RX buffers) they can use. Those differences —
// not the wire — dominate the measured overheads, so the simulator
// charges per-syscall, per-segment, per-copy, and per-checksum costs
// explicitly and puts them on a virtual clock.
package netsim

import (
	"sync"
	"time"
)

// A Clock is a virtual nanosecond clock shared by every component of
// one simulation. Components advance it by the simulated cost of their
// operations; no real time passes. It is safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now time.Duration
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance adds d to the clock and returns the new time. Negative
// advances panic: virtual time is monotonic.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic("netsim: negative clock advance")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}
