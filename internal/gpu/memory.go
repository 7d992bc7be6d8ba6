package gpu

import (
	"errors"
	"fmt"
	"sort"
)

// Ptr is a simulated device address. The zero value is the null
// device pointer.
type Ptr uint64

// Memory layout constants.
const (
	// baseAddr is the start of the simulated device virtual address
	// space, chosen to look like real CUDA unified addresses.
	baseAddr Ptr = 0x7f_0000_0000
	// allocAlign is the allocation granularity (cudaMalloc guarantees
	// 256-byte alignment).
	allocAlign = 256
)

// Memory errors.
var (
	// ErrOutOfMemory reports allocation failure.
	ErrOutOfMemory = errors.New("gpu: out of memory")
	// ErrInvalidPtr reports an access through an address that is not
	// inside a live allocation — the simulated equivalent of an
	// illegal-address fault.
	ErrInvalidPtr = errors.New("gpu: invalid device pointer")
	// ErrDoubleFree reports freeing a pointer that is not an
	// allocation base.
	ErrDoubleFree = errors.New("gpu: pointer is not an allocation base")
)

// An allocation is one live device-memory region with real backing
// storage. Every allocation owns its slice, so a view pinned before a
// Free or Reset keeps pointing at the old bytes and never aliases a
// later allocation at the same address.
type allocation struct {
	base Ptr
	data []byte
	// pins are the ranges of data handed out as Views and not yet
	// unpinned. Guarded by the owning Device's mu.
	pins []pinRange
}

// A pinRange is one outstanding pin: bytes [lo, hi) of an
// allocation's data, pinned for writing or for reading.
type pinRange struct {
	lo, hi uint64
	write  bool
}

// conflicts reports whether an access to [lo, hi) of a must wait for
// one of a's pins: the ranges overlap and at least one side writes.
func (a *allocation) conflicts(lo, hi uint64, write bool) bool {
	for _, p := range a.pins {
		if lo < p.hi && p.lo < hi && (write || p.write) {
			return true
		}
	}
	return false
}

// memSpace is the device memory manager: a first-fit free-list
// allocator over a simulated address space with byte-addressable
// backing storage per allocation.
type memSpace struct {
	capacity uint64
	used     uint64
	// allocs is sorted by base address.
	allocs []*allocation
	// next is the bump pointer for fresh address space; freed ranges
	// are recycled through the free list first.
	next Ptr
	free []freeRange // sorted by base
}

type freeRange struct {
	base Ptr
	size uint64
}

func newMemSpace(capacity uint64) *memSpace {
	return &memSpace{capacity: capacity, next: baseAddr}
}

func alignUp(n uint64) uint64 {
	return (n + allocAlign - 1) &^ (allocAlign - 1)
}

// alloc reserves size bytes and returns the base pointer.
func (m *memSpace) alloc(size uint64) (Ptr, error) {
	if size == 0 {
		// cudaMalloc(0) returns a unique non-null pointer; model it as
		// a minimal allocation.
		size = 1
	}
	rsize := alignUp(size)
	if m.used+rsize > m.capacity {
		return 0, fmt.Errorf("%w: %d requested, %d of %d in use", ErrOutOfMemory, size, m.used, m.capacity)
	}
	var base Ptr
	// First-fit over the free list.
	for i, f := range m.free {
		if f.size >= rsize {
			base = f.base
			if f.size == rsize {
				m.free = append(m.free[:i], m.free[i+1:]...)
			} else {
				m.free[i] = freeRange{base: f.base + Ptr(rsize), size: f.size - rsize}
			}
			break
		}
	}
	if base == 0 {
		base = m.next
		m.next += Ptr(rsize)
	}
	a := &allocation{base: base, data: make([]byte, size)}
	idx := sort.Search(len(m.allocs), func(i int) bool { return m.allocs[i].base >= base })
	m.allocs = append(m.allocs, nil)
	copy(m.allocs[idx+1:], m.allocs[idx:])
	m.allocs[idx] = a
	m.used += rsize
	return base, nil
}

// freePtr releases the allocation with the given base.
func (m *memSpace) freePtr(p Ptr) error {
	idx := sort.Search(len(m.allocs), func(i int) bool { return m.allocs[i].base >= p })
	if idx >= len(m.allocs) || m.allocs[idx].base != p {
		return fmt.Errorf("%w: %#x", ErrDoubleFree, uint64(p))
	}
	rsize := alignUp(uint64(len(m.allocs[idx].data)))
	m.allocs = append(m.allocs[:idx], m.allocs[idx+1:]...)
	m.used -= rsize
	m.insertFree(freeRange{base: p, size: rsize})
	return nil
}

// insertFree adds a range to the free list, coalescing neighbours.
func (m *memSpace) insertFree(f freeRange) {
	idx := sort.Search(len(m.free), func(i int) bool { return m.free[i].base >= f.base })
	m.free = append(m.free, freeRange{})
	copy(m.free[idx+1:], m.free[idx:])
	m.free[idx] = f
	// Coalesce with successor.
	if idx+1 < len(m.free) && m.free[idx].base+Ptr(m.free[idx].size) == m.free[idx+1].base {
		m.free[idx].size += m.free[idx+1].size
		m.free = append(m.free[:idx+1], m.free[idx+2:]...)
	}
	// Coalesce with predecessor.
	if idx > 0 && m.free[idx-1].base+Ptr(m.free[idx-1].size) == m.free[idx].base {
		m.free[idx-1].size += m.free[idx].size
		m.free = append(m.free[:idx], m.free[idx+1:]...)
	}
}

// find resolves an address range to its allocation and the range's
// offset in it, enforcing that [p, p+n) lies inside one live
// allocation.
func (m *memSpace) find(p Ptr, n uint64) (*allocation, uint64, error) {
	idx := sort.Search(len(m.allocs), func(i int) bool { return m.allocs[i].base > p })
	if idx == 0 {
		return nil, 0, fmt.Errorf("%w: %#x", ErrInvalidPtr, uint64(p))
	}
	a := m.allocs[idx-1]
	off := uint64(p - a.base)
	if off+n > uint64(len(a.data)) {
		return nil, 0, fmt.Errorf("%w: [%#x,+%d) overruns allocation of %d bytes at %#x",
			ErrInvalidPtr, uint64(p), n, len(a.data), uint64(a.base))
	}
	return a, off, nil
}

// region resolves an address range to the backing bytes.
func (m *memSpace) region(p Ptr, n uint64) ([]byte, error) {
	a, off, err := m.find(p, n)
	if err != nil {
		return nil, err
	}
	return a.data[off : off+n], nil
}

// unpinned is region for a kernel: an allocation that holds a pin is
// not the kernel's to touch (Mem.Bytes).
func (m *memSpace) unpinned(p Ptr, n uint64) ([]byte, error) {
	a, off, err := m.find(p, n)
	if err != nil {
		return nil, err
	}
	if len(a.pins) > 0 {
		return nil, errPinned(p)
	}
	return a.data[off : off+n], nil
}

// stats reports capacity accounting.
func (m *memSpace) stats() (free, total uint64) {
	return m.capacity - m.used, m.capacity
}

// liveCount reports the number of live allocations.
func (m *memSpace) liveCount() int { return len(m.allocs) }
