package gpu

import (
	"errors"
	"time"
)

// ErrSnapshotBudget reports a checkpoint attempt whose live data
// exceeds the device's configured staging budget (the host memory set
// aside for device-to-host readback). Checkpointing is all-or-nothing:
// a partial snapshot would be useless, so the attempt fails cleanly.
var ErrSnapshotBudget = errors.New("gpu: snapshot exceeds staging budget")

// A Snapshot is a deep copy of a device's memory state: every live
// allocation with its contents, plus the allocator bookkeeping needed
// to restore pointer-identical state. It backs Cricket's
// checkpoint/restart support: because device pointers are preserved,
// application-held pointers and module handles remain valid across a
// restore.
type Snapshot struct {
	allocs   []allocation
	next     Ptr
	free     []freeRange
	used     uint64
	launches uint64
	flops    float64
}

// Bytes reports the total payload size of the snapshot.
func (s *Snapshot) Bytes() uint64 {
	var n uint64
	for _, a := range s.allocs {
		n += uint64(len(a.data))
	}
	return n
}

// Allocations reports the number of captured allocations.
func (s *Snapshot) Allocations() int { return len(s.allocs) }

// SetSnapshotBudget bounds the total live bytes a Snapshot may stage;
// zero removes the bound. Snapshot fails with ErrSnapshotBudget when
// live data exceeds the budget.
func (d *Device) SetSnapshotBudget(bytes uint64) {
	d.mu.Lock()
	d.snapBudget = bytes
	d.mu.Unlock()
}

// Snapshot captures the device's full memory state. The returned
// duration models the device-to-host readback of all live data. It
// fails when live data exceeds the staging budget, if one is set. It
// never captures a half-landed transfer: it first waits for write pins
// on live allocations to go, and fails with ErrPinned if they outlast
// snapshotPinWait.
func (d *Device) Snapshot() (*Snapshot, time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.waitWritePins() {
		return nil, 0, ErrPinned
	}
	if d.snapBudget > 0 {
		var live uint64
		for _, a := range d.mem.allocs {
			live += uint64(len(a.data))
		}
		if live > d.snapBudget {
			return nil, 0, ErrSnapshotBudget
		}
	}
	s := &Snapshot{
		next:     d.mem.next,
		used:     d.mem.used,
		launches: d.launches,
		flops:    d.flopsTotal,
	}
	s.allocs = make([]allocation, len(d.mem.allocs))
	var bytes uint64
	for i, a := range d.mem.allocs {
		data := make([]byte, len(a.data))
		copy(data, a.data)
		s.allocs[i] = allocation{base: a.base, data: data}
		bytes += uint64(len(data))
	}
	s.free = append([]freeRange(nil), d.mem.free...)
	return s, d.copyTime(bytes), nil
}

// RestoreSnapshot replaces the device's memory state with the
// snapshot's. The returned duration models the host-to-device upload.
func (d *Device) RestoreSnapshot(s *Snapshot) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := newMemSpace(d.spec.MemBytes)
	m.next = s.next
	m.used = s.used
	m.free = append([]freeRange(nil), s.free...)
	m.allocs = make([]*allocation, len(s.allocs))
	var bytes uint64
	for i := range s.allocs {
		data := make([]byte, len(s.allocs[i].data))
		copy(data, s.allocs[i].data)
		m.allocs[i] = &allocation{base: s.allocs[i].base, data: data}
		bytes += uint64(len(data))
	}
	d.mem = m
	d.launches = s.launches
	d.flopsTotal = s.flops
	d.wakeWaiters()
	return d.copyTime(bytes)
}
