package gpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Execution errors.
var (
	// ErrBadLaunch reports an invalid launch configuration.
	ErrBadLaunch = errors.New("gpu: invalid launch configuration")
	// ErrUnknownKernel reports a launch of an unregistered kernel.
	ErrUnknownKernel = errors.New("gpu: unknown kernel")
	// ErrBadArgs reports a malformed kernel argument buffer.
	ErrBadArgs = errors.New("gpu: bad kernel arguments")
)

// Dim3 is a CUDA three-dimensional extent.
type Dim3 struct{ X, Y, Z uint32 }

// Count returns X*Y*Z.
func (d Dim3) Count() uint64 { return uint64(d.X) * uint64(d.Y) * uint64(d.Z) }

// A LaunchConfig describes one kernel launch.
type LaunchConfig struct {
	Grid      Dim3
	Block     Dim3
	SharedMem uint32
}

// A Cost is the analytic execution-time model of one kernel: the work
// one thread performs. Total kernel time is the larger of the compute
// and memory roofline terms plus the device launch overhead.
type Cost struct {
	// FLOPsPerThread is arithmetic work per thread.
	FLOPsPerThread float64
	// BytesPerThread is DRAM traffic per thread.
	BytesPerThread float64
	// FixedNS is added once per launch (e.g. for reduction tails).
	FixedNS float64
}

// A KernelFunc is the host-side implementation of a simulated device
// kernel. It receives a handle to device memory, the launch
// configuration, and the decoded argument reader. It runs with the
// device lock held, so implementations must not call Device methods.
type KernelFunc func(mem *Mem, cfg LaunchConfig, args *Args) error

// A Kernel pairs a functional implementation with its cost model.
// When CostFn is non-nil it computes a launch-specific cost from the
// configuration and arguments (e.g. a GEMM whose FLOPs depend on the
// matrix width argument); otherwise the static Cost applies.
type Kernel struct {
	Fn     KernelFunc
	Cost   Cost
	CostFn func(cfg LaunchConfig, args *Args) Cost
}

// A Device simulates one GPU: memory space, kernel registry, and
// timing model. All methods are safe for concurrent use; simulated
// durations are returned to the caller rather than slept, so callers
// account them on a virtual clock.
type Device struct {
	spec Spec

	mu      sync.Mutex
	mem     *memSpace
	kernels map[string]Kernel

	launches   uint64
	flopsTotal float64
	timingOnly bool
	snapBudget uint64 // max bytes a Snapshot may stage; 0 = unlimited

	// What a launch hands its kernel, reused from launch to launch
	// under mu: both are only valid while the kernel runs.
	args Args
	kmem Mem

	// pins counts outstanding Views, those of freed allocations
	// included; unpinned (over mu) wakes ops waiting for a
	// conflicting pin to go. See pin.go.
	pins     int
	unpinned sync.Cond
}

// SetTimingOnly switches the device between full functional execution
// and timing-only mode. In timing-only mode Launch validates the
// configuration and computes the simulated duration from the cost
// model but skips the functional kernel body. Simulated timing is
// identical in both modes (costs never depend on the functional
// execution); benchmark harnesses verify results with a few full
// iterations and replay the rest in timing-only mode so paper-scale
// runs (100,000 launches) complete in reasonable wall-clock time.
func (d *Device) SetTimingOnly(on bool) {
	d.mu.Lock()
	d.timingOnly = on
	d.mu.Unlock()
}

// New returns a device with the given hardware spec.
func New(spec Spec) *Device {
	d := &Device{
		spec:    spec,
		mem:     newMemSpace(spec.MemBytes),
		kernels: make(map[string]Kernel),
	}
	d.unpinned.L = &d.mu
	return d
}

// Spec returns the device's hardware description.
func (d *Device) Spec() Spec { return d.spec }

// RegisterKernel installs the implementation of a named kernel. It
// panics on duplicate registration, which indicates a module-loading
// bug.
func (d *Device) RegisterKernel(name string, k Kernel) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.kernels[name]; dup {
		panic(fmt.Sprintf("gpu: kernel %q registered twice", name))
	}
	d.kernels[name] = k
}

// HasKernel reports whether name is registered.
func (d *Device) HasKernel(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.kernels[name]
	return ok
}

// Malloc allocates device memory. The returned duration models the
// driver-side cost of an allocation.
func (d *Device) Malloc(size uint64) (Ptr, time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, err := d.mem.alloc(size)
	return p, 3500 * time.Nanosecond, err // driver-side bookkeeping cost
}

// Free releases device memory.
func (d *Device) Free(p Ptr) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.mem.freePtr(p)
	d.wakeWaiters()
	return 3 * time.Microsecond, err
}

// MemInfo reports free and total device memory.
func (d *Device) MemInfo() (free, total uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mem.stats()
}

// LiveAllocations reports the number of outstanding allocations.
func (d *Device) LiveAllocations() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mem.liveCount()
}

// PCIeCopyTime models a PCIe transfer between a host staging buffer
// and device memory (PCIe gen4 x16 ≈ 25 GB/s effective, plus setup).
// Exported so transfer strategies that overlap network and PCIe
// phases (GPUDirect RDMA, shared memory) can account the overlap.
func PCIeCopyTime(n uint64) time.Duration {
	const pcieBW = 25e9
	ns := 1500 + float64(n)/pcieBW*1e9
	return time.Duration(ns) * time.Nanosecond
}

func (d *Device) copyTime(n uint64) time.Duration { return PCIeCopyTime(n) }

// Write copies host bytes into device memory.
func (d *Device) Write(p Ptr, data []byte) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.busy(p, uint64(len(data)), true) {
		d.unpinned.Wait()
	}
	dst, err := d.mem.region(p, uint64(len(data)))
	if err != nil {
		return 0, err
	}
	copy(dst, data)
	return d.copyTime(uint64(len(data))), nil
}

// Read copies device memory into a fresh host buffer.
func (d *Device) Read(p Ptr, n uint64) ([]byte, time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.busy(p, n, false) {
		d.unpinned.Wait()
	}
	src, err := d.mem.region(p, n)
	if err != nil {
		return nil, 0, err
	}
	out := make([]byte, n)
	copy(out, src)
	return out, d.copyTime(n), nil
}

// ReadInto copies device memory into a caller-provided buffer,
// filling it completely — the allocation-free variant of Read for
// callers that recycle buffers (the shared-memory and RDMA servers).
func (d *Device) ReadInto(p Ptr, dst []byte) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.busy(p, uint64(len(dst)), false) {
		d.unpinned.Wait()
	}
	src, err := d.mem.region(p, uint64(len(dst)))
	if err != nil {
		return 0, err
	}
	copy(dst, src)
	return d.copyTime(uint64(len(dst))), nil
}

// Memset fills device memory with a byte value.
func (d *Device) Memset(p Ptr, v byte, n uint64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.busy(p, n, true) {
		d.unpinned.Wait()
	}
	dst, err := d.mem.region(p, n)
	if err != nil {
		return 0, err
	}
	for i := range dst {
		dst[i] = v
	}
	ns := 1000 + float64(n)/d.spec.MemBandwidth*1e9
	return time.Duration(ns) * time.Nanosecond, nil
}

// CopyDtoD copies within device memory.
func (d *Device) CopyDtoD(dst, src Ptr, n uint64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.busy(src, n, false) || d.busy(dst, n, true) {
		d.unpinned.Wait()
	}
	s, err := d.mem.region(src, n)
	if err != nil {
		return 0, err
	}
	t, err := d.mem.region(dst, n)
	if err != nil {
		return 0, err
	}
	copy(t, s)
	ns := 1000 + 2*float64(n)/d.spec.MemBandwidth*1e9
	return time.Duration(ns) * time.Nanosecond, nil
}

// A Mem is the device-memory handle passed to executing kernels. It
// is only valid for the duration of the kernel invocation.
type Mem struct {
	m *memSpace
	// pinned is whether any pin was outstanding when the kernel
	// started; none can come or go while it runs, as it holds d.mu.
	pinned bool
}

// Bytes resolves a device range to its live backing bytes; kernels
// mutate device memory through the returned slice. An allocation a
// transfer still holds pinned is not the kernel's to touch: Launch
// waited only for the allocations its 8-byte parameters point into.
func (m *Mem) Bytes(p Ptr, n uint64) ([]byte, error) {
	if !m.pinned {
		return m.m.region(p, n)
	}
	return m.m.unpinned(p, n)
}

// An ArgSlot describes one kernel parameter's place in the argument
// buffer, mirroring the cubin parameter metadata.
type ArgSlot struct {
	Off, Size uint16
	Pointer   bool
}

// Args decodes a kernel argument buffer according to the parameter
// layout extracted from the kernel's cubin metadata. Offsets and sizes
// are validated against the buffer at access time. Like Mem, it is
// only valid for the duration of the kernel invocation.
type Args struct {
	buf     []byte
	offsets []ArgSlot
}

// Len reports the number of declared parameters.
func (a *Args) Len() int { return len(a.offsets) }

func (a *Args) slot(i int, wantSize uint16) ([]byte, error) {
	if i < 0 || i >= len(a.offsets) {
		return nil, fmt.Errorf("%w: parameter %d of %d", ErrBadArgs, i, len(a.offsets))
	}
	s := a.offsets[i]
	if wantSize != 0 && s.Size != wantSize {
		return nil, fmt.Errorf("%w: parameter %d is %d bytes, want %d", ErrBadArgs, i, s.Size, wantSize)
	}
	end := int(s.Off) + int(s.Size)
	if end > len(a.buf) {
		return nil, fmt.Errorf("%w: parameter %d overruns %d-byte buffer", ErrBadArgs, i, len(a.buf))
	}
	return a.buf[s.Off:end], nil
}

// Ptr returns parameter i as a device pointer.
func (a *Args) Ptr(i int) (Ptr, error) {
	b, err := a.slot(i, 8)
	if err != nil {
		return 0, err
	}
	return Ptr(binary.LittleEndian.Uint64(b)), nil
}

// U32 returns parameter i as a uint32 scalar.
func (a *Args) U32(i int) (uint32, error) {
	b, err := a.slot(i, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// I32 returns parameter i as an int32 scalar.
func (a *Args) I32(i int) (int32, error) {
	v, err := a.U32(i)
	return int32(v), err
}

// U64 returns parameter i as a uint64 scalar.
func (a *Args) U64(i int) (uint64, error) {
	b, err := a.slot(i, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Launch executes a registered kernel. The argument buffer is decoded
// with the given layout. It returns the simulated kernel duration.
// The kernel runs once no allocation its 8-byte parameters point into
// is pinned.
func (d *Device) Launch(name string, cfg LaunchConfig, argBuf []byte, layout []ArgSlot) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.argsPinned(argBuf, layout) {
		d.unpinned.Wait()
	}
	k, ok := d.kernels[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownKernel, name)
	}
	if err := d.validate(cfg); err != nil {
		return 0, err
	}
	d.args, d.kmem = Args{buf: argBuf, offsets: layout}, Mem{m: d.mem, pinned: d.pins > 0}
	args := &d.args
	defer func() { d.args = Args{} }() // argBuf is the caller's again
	if !d.timingOnly {
		if err := k.Fn(&d.kmem, cfg, args); err != nil {
			return 0, err
		}
	}
	cost := k.Cost
	if k.CostFn != nil {
		cost = k.CostFn(cfg, args)
	}
	d.launches++
	threads := cfg.Grid.Count() * cfg.Block.Count()
	d.flopsTotal += cost.FLOPsPerThread * float64(threads)
	return d.execTime(cost, threads), nil
}

func (d *Device) validate(cfg LaunchConfig) error {
	bt := cfg.Block.Count()
	if bt == 0 || bt > uint64(d.spec.MaxThreadsPerBlock) {
		return fmt.Errorf("%w: %d threads per block (max %d)", ErrBadLaunch, bt, d.spec.MaxThreadsPerBlock)
	}
	if cfg.Grid.Count() == 0 {
		return fmt.Errorf("%w: empty grid", ErrBadLaunch)
	}
	if cfg.Grid.X > d.spec.MaxGridDim || cfg.Grid.Y > d.spec.MaxGridDim || cfg.Grid.Z > d.spec.MaxGridDim {
		return fmt.Errorf("%w: grid dimension exceeds %d", ErrBadLaunch, d.spec.MaxGridDim)
	}
	if cfg.SharedMem > d.spec.MaxSharedMemPerBlock {
		return fmt.Errorf("%w: %d bytes shared memory (max %d)", ErrBadLaunch, cfg.SharedMem, d.spec.MaxSharedMemPerBlock)
	}
	return nil
}

// execTime applies the roofline model: the kernel takes the larger of
// its compute time and its memory time, plus launch overhead.
func (d *Device) execTime(c Cost, threads uint64) time.Duration {
	compute := c.FLOPsPerThread * float64(threads) / d.spec.PeakFLOPS() * 1e9
	memory := c.BytesPerThread * float64(threads) / d.spec.MemBandwidth * 1e9
	ns := d.spec.LaunchOverheadNS + c.FixedNS + math.Max(compute, memory)
	return time.Duration(ns) * time.Nanosecond
}

// Stats reports cumulative execution counters.
func (d *Device) Stats() (launches uint64, flops float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.launches, d.flopsTotal
}

// Reset releases all allocations and counters, as after
// cudaDeviceReset or a checkpoint/restore cycle.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mem = newMemSpace(d.spec.MemBytes)
	d.launches = 0
	d.flopsTotal = 0
	d.wakeWaiters()
}
