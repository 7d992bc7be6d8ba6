package netsim

import (
	"sync"
	"sync/atomic"
)

// This file models the paper's shared-memory transfer method (§4.2):
// client and server map the same POSIX shm segment and move memcpy
// payloads through it instead of the socket, so the only costs left
// are the memcpy into the segment and the doorbell. The model is an
// in-process byte segment carved into fixed slots plus a lock-free
// single-producer/single-consumer descriptor ring over them; it
// carries real bytes (digests must match the wire paths bit for bit)
// while the virtual clock charges the modeled memcpy cost separately.

// ShmDesc is one descriptor ring entry: an operation over the slot's
// payload window. The producer fills Op/Ptr/Len before publishing;
// the consumer fills Status before completing.
type ShmDesc struct {
	Op     uint32
	Status uint32
	Ptr    uint64
	Len    uint64
}

// A ShmRing is a single-producer/single-consumer descriptor ring over
// a shared byte segment. The producer side (client) claims a slot,
// copies its payload in place, and publishes the descriptor; the
// consumer side (server) processes slots in order and completes them.
// Head and done indices are atomics; an empty-to-nonempty transition
// rings a capacity-1 doorbell channel, mirroring an eventfd doorbell
// over a real shm ring. No locks are taken and the producer-side hot
// path performs no allocations.
type ShmRing struct {
	seg      []byte
	desc     []ShmDesc
	slotSize int
	slots    uint64

	head atomic.Uint64 // descriptors published by the producer
	done atomic.Uint64 // descriptors completed by the consumer

	reaped uint64 // producer-private: completions consumed

	doorbell chan struct{} // producer -> consumer wakeup
	complete chan struct{} // consumer -> producer wakeup

	quit chan struct{}
	once sync.Once
}

// NewShmRing maps a modeled segment of slots fixed-size payload
// windows with a descriptor ring over them. It panics on non-positive
// sizes.
func NewShmRing(slots, slotSize int) *ShmRing {
	if slots <= 0 || slotSize <= 0 {
		panic("netsim: invalid shm ring geometry")
	}
	return &ShmRing{
		seg:      make([]byte, slots*slotSize),
		desc:     make([]ShmDesc, slots),
		slotSize: slotSize,
		slots:    uint64(slots),
		doorbell: make(chan struct{}, 1),
		complete: make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
}

// SlotSize returns the payload capacity of one slot.
func (r *ShmRing) SlotSize() int { return r.slotSize }

// Closed reports whether the ring has been torn down.
func (r *ShmRing) Closed() bool {
	select {
	case <-r.quit:
		return true
	default:
		return false
	}
}

// Produce claims the next free slot for an operation of n payload
// bytes and returns its segment window for the caller to fill in
// place. It returns ok=false if the ring is closed, n exceeds the
// slot size, or the ring is full — the producer must Reap completions
// to free slots before producing past the depth. Publish makes the
// slot visible to the consumer.
func (r *ShmRing) Produce(op uint32, ptr uint64, n int) (buf []byte, ok bool) {
	if r.Closed() || n > r.slotSize {
		return nil, false
	}
	head := r.head.Load()
	if head-r.reaped >= r.slots {
		return nil, false
	}
	i := head % r.slots
	d := &r.desc[i]
	d.Op, d.Ptr, d.Len, d.Status = op, ptr, uint64(n), 0
	off := int(i) * r.slotSize
	return r.seg[off : off+n : off+n], true
}

// Publish makes the slot claimed by the last Produce visible to the
// consumer and rings the doorbell.
func (r *ShmRing) Publish() {
	r.head.Add(1)
	select {
	case r.doorbell <- struct{}{}:
	default:
	}
}

// Outstanding returns how many published slots the producer has not
// yet reaped.
func (r *ShmRing) Outstanding() int {
	return int(r.head.Load() - r.reaped)
}

// Reap blocks until the oldest outstanding slot completes and returns
// its payload window and status. Pending completions are drained even
// after Close; ok=false means the ring closed with nothing left.
func (r *ShmRing) Reap() (buf []byte, status uint32, ok bool) {
	for r.done.Load() == r.reaped {
		select {
		case <-r.complete:
		case <-r.quit:
			// Recheck: a completion may have landed with the wakeup
			// lost to the close.
			if r.done.Load() != r.reaped {
				break
			}
			return nil, 0, false
		}
	}
	i := r.reaped % r.slots
	d := &r.desc[i]
	off := int(i) * r.slotSize
	r.reaped++
	return r.seg[off : off+int(d.Len)], d.Status, true
}

// Serve runs the consumer loop: it processes published slots in order,
// invoking handle with the descriptor's operation and the slot's
// payload window (which handle may read or fill in place), stores the
// returned status, and completes the slot. It returns when the ring
// is closed.
func (r *ShmRing) Serve(handle func(op uint32, ptr uint64, buf []byte) uint32) {
	for {
		done := r.done.Load()
		for done == r.head.Load() {
			select {
			case <-r.doorbell:
			case <-r.quit:
				return
			}
		}
		i := done % r.slots
		d := &r.desc[i]
		off := int(i) * r.slotSize
		d.Status = handle(d.Op, d.Ptr, r.seg[off:off+int(d.Len)])
		r.done.Add(1)
		select {
		case r.complete <- struct{}{}:
		default:
		}
	}
}

// Close tears the ring down: Serve returns, blocked Reaps unblock,
// and further Produces fail. Close models the segment unmapping when
// either endpoint dies; it is idempotent.
func (r *ShmRing) Close() {
	r.once.Do(func() { close(r.quit) })
}
