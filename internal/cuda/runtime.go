package cuda

import (
	"errors"
	"maps"
	"sync"
	"time"

	"cricket/internal/cubin"
	"cricket/internal/gpu"
	"cricket/internal/netsim"
)

// DeviceProp mirrors the subset of cudaDeviceProp that the proxy
// applications consult.
type DeviceProp struct {
	Name                string
	TotalGlobalMem      uint64
	Major, Minor        int32
	MultiProcessorCount int32
	ClockRateKHz        int32
	MaxThreadsPerBlock  int32
	SharedMemPerBlock   uint64
	MemoryBandwidthGBps float64
}

// Handle types for driver-API objects carried over RPC.
type (
	// Module identifies a loaded cubin module (CUmodule).
	Module uint64
	// Function identifies a kernel within a module (CUfunction).
	Function uint64
	// Stream identifies an execution stream; 0 is the default stream.
	Stream uint64
	// Event identifies a timing event.
	Event uint64
)

// A Runtime is one process's view of the CUDA API: a set of devices,
// a current device, and driver-object tables. The Cricket server owns
// one Runtime; simulated operation durations advance the provided
// virtual clock (if any) and are also returned to the caller.
type Runtime struct {
	clock *netsim.Clock

	mu        sync.Mutex
	devices   []*gpu.Device
	current   int
	modules   map[Module]*moduleState
	functions map[Function]*funcState
	streams   map[Stream]*streamState
	events    map[Event]*eventState
	nextID    uint64

	// handleLimit caps live streams+events; 0 means unlimited. Real
	// drivers fail handle creation when per-context resources run out;
	// the cap gives that failure mode a deterministic trigger.
	handleLimit int

	lastErr Error
	// asyncErr is a launch failure waiting to be reported by the next
	// DeviceSynchronize, CUDA's deferred async-error model.
	asyncErr Error
}

type moduleState struct {
	img     *cubin.Image
	dev     int
	globals map[string]gpu.Ptr
}

type funcState struct {
	mod    Module
	kernel *cubin.KernelDesc
	layout []gpu.ArgSlot // kernel.Params as the device reads them
}

type streamState struct {
	// dev is the device that was current at creation; DeviceReset on
	// it destroys the stream. The default stream belongs to no device.
	dev int
}

type eventState struct {
	dev      int // as streamState.dev
	recorded bool
	at       time.Duration
}

// NewRuntime creates a runtime over the given devices. The clock may
// be nil, in which case simulated durations are only returned, not
// accumulated anywhere.
func NewRuntime(clock *netsim.Clock, devices ...*gpu.Device) *Runtime {
	if len(devices) == 0 {
		panic("cuda: NewRuntime with no devices")
	}
	r := &Runtime{
		clock:     clock,
		devices:   devices,
		modules:   make(map[Module]*moduleState),
		functions: make(map[Function]*funcState),
		streams:   make(map[Stream]*streamState),
		events:    make(map[Event]*eventState),
	}
	r.streams[0] = &streamState{dev: -1} // default stream
	return r
}

// charge advances the shared clock by d and returns d.
func (r *Runtime) charge(d time.Duration) time.Duration {
	if r.clock != nil && d > 0 {
		r.clock.Advance(d)
	}
	return d
}

// note records the sticky last error, CUDA's cudaGetLastError model.
func (r *Runtime) note(err error) error {
	if err != nil {
		r.lastErr = Code(err)
	}
	return err
}

// GetLastError returns and clears the last error code.
func (r *Runtime) GetLastError() Error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lastErr
	r.lastErr = Success
	return e
}

// asyncPending reports (without clearing) a failure from previously
// launched asynchronous work. CUDA surfaces such errors on most
// subsequent API calls ("may also return error codes from previous,
// asynchronous launches"); only DeviceSynchronize, GetLastError, and
// DeviceReset clear the pending code.
func (r *Runtime) asyncPending() error {
	if r.asyncErr != Success {
		return r.asyncErr
	}
	return nil
}

// GetDeviceCount returns the number of devices (cudaGetDeviceCount).
// Like CUDA, it reports a pending error from a previous asynchronous
// launch, leaving it in place for DeviceSynchronize to clear.
func (r *Runtime) GetDeviceCount() (int, time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.devices), r.charge(300 * time.Nanosecond), r.asyncPending()
}

// SetDevice selects the current device (cudaSetDevice).
func (r *Runtime) SetDevice(i int) (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.devices) {
		return r.charge(200 * time.Nanosecond), r.note(ErrorInvalidDevice)
	}
	r.current = i
	return r.charge(500 * time.Nanosecond), nil
}

// GetDevice returns the current device ordinal (cudaGetDevice). Like
// CUDA, it reports a pending error from a previous asynchronous
// launch, leaving it in place for DeviceSynchronize to clear.
func (r *Runtime) GetDevice() (int, time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.current, r.charge(200 * time.Nanosecond), r.asyncPending()
}

// Device returns the underlying simulator for ordinal i, for test and
// server bootstrap use.
func (r *Runtime) Device(i int) (*gpu.Device, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.devices) {
		return nil, ErrorInvalidDevice
	}
	return r.devices[i], nil
}

func (r *Runtime) cur() *gpu.Device { return r.devices[r.current] }

// device returns the current device. Ops that may wait for a pinned
// range (see gpu.Device.Pin) run on it without r.mu, so the wait holds
// up no other tenant.
func (r *Runtime) device() *gpu.Device {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur()
}

// copied finishes a memory op that ran without r.mu: it charges d and
// notes a failure as an invalid device pointer.
func (r *Runtime) copied(d time.Duration, err error) (time.Duration, error) {
	if err != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.charge(d), r.note(ErrorInvalidDevicePointer)
	}
	return r.charge(d), nil
}

// GetDeviceProperties returns the properties of device i
// (cudaGetDeviceProperties).
func (r *Runtime) GetDeviceProperties(i int) (DeviceProp, time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.devices) {
		return DeviceProp{}, r.charge(200 * time.Nanosecond), r.note(ErrorInvalidDevice)
	}
	s := r.devices[i].Spec()
	return DeviceProp{
		Name:                s.Name,
		TotalGlobalMem:      s.MemBytes,
		Major:               int32(s.Arch / 10),
		Minor:               int32(s.Arch % 10),
		MultiProcessorCount: int32(s.SMs),
		ClockRateKHz:        int32(s.ClockHz / 1000),
		MaxThreadsPerBlock:  int32(s.MaxThreadsPerBlock),
		SharedMemPerBlock:   uint64(s.MaxSharedMemPerBlock),
		MemoryBandwidthGBps: s.MemBandwidth / 1e9,
	}, r.charge(1200 * time.Nanosecond), nil
}

// Malloc allocates device memory (cudaMalloc).
func (r *Runtime) Malloc(size uint64) (gpu.Ptr, time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, d, err := r.cur().Malloc(size)
	if err != nil {
		return 0, r.charge(d), r.note(ErrorMemoryAllocation)
	}
	return p, r.charge(d), nil
}

// Free releases device memory (cudaFree). Freeing the null pointer is
// a no-op, as in CUDA.
func (r *Runtime) Free(p gpu.Ptr) (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p == 0 {
		return r.charge(200 * time.Nanosecond), nil
	}
	d, err := r.cur().Free(p)
	if err != nil {
		return r.charge(d), r.note(ErrorInvalidDevicePointer)
	}
	return r.charge(d), nil
}

// MemGetInfo reports free and total device memory (cudaMemGetInfo).
// Like CUDA, it reports a pending error from a previous asynchronous
// launch, leaving it in place for DeviceSynchronize to clear.
func (r *Runtime) MemGetInfo() (free, total uint64, dur time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	free, total = r.cur().MemInfo()
	return free, total, r.charge(600 * time.Nanosecond), r.asyncPending()
}

// MemcpyHtoD copies host bytes to device memory.
func (r *Runtime) MemcpyHtoD(dst gpu.Ptr, src []byte) (time.Duration, error) {
	return r.copied(r.device().Write(dst, src))
}

// MemcpyDtoH copies device memory to a fresh host buffer.
func (r *Runtime) MemcpyDtoH(src gpu.Ptr, n uint64) ([]byte, time.Duration, error) {
	b, d, err := r.device().Read(src, n)
	d, err = r.copied(d, err)
	if err != nil {
		return nil, d, err
	}
	return b, d, nil
}

// MemcpyDtoHInto copies device memory into a caller-provided buffer,
// filling it completely. It is the allocation-free sibling of
// MemcpyDtoH for hot paths that recycle host buffers.
func (r *Runtime) MemcpyDtoHInto(src gpu.Ptr, dst []byte) (time.Duration, error) {
	return r.copied(r.device().ReadInto(src, dst))
}

// Pin pins [p, p+n) of the current device for writing or for reading
// (gpu.Device.Pin) and charges the PCIe copy MemcpyHtoD or
// MemcpyDtoHInto would: the caller moves the bytes through the view
// itself, with no staging buffer, and must Unpin it.
func (r *Runtime) Pin(p gpu.Ptr, n uint64, write bool) (gpu.View, time.Duration, error) {
	v, err := r.device().Pin(p, n, write)
	if err != nil {
		d, err := r.copied(0, err)
		return gpu.View{}, d, err
	}
	return v, r.charge(gpu.PCIeCopyTime(n)), nil
}

// MemcpyDtoD copies between device buffers.
func (r *Runtime) MemcpyDtoD(dst, src gpu.Ptr, n uint64) (time.Duration, error) {
	return r.copied(r.device().CopyDtoD(dst, src, n))
}

// Memset fills device memory (cudaMemset).
func (r *Runtime) Memset(p gpu.Ptr, value byte, n uint64) (time.Duration, error) {
	return r.copied(r.device().Memset(p, value, n))
}

// DeviceSynchronize waits for all streams (cudaDeviceSynchronize). In
// the simulation all work is already complete; the cost models the
// driver round trip. Like CUDA, it reports a failure from previously
// launched asynchronous work: a pending launch error is returned once
// and cleared.
func (r *Runtime) DeviceSynchronize() (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.charge(1 * time.Microsecond)
	if r.asyncErr != Success {
		err := r.asyncErr
		r.asyncErr = Success
		return d, err
	}
	return d, nil
}

// DeviceReset releases all device state (cudaDeviceReset): memory,
// modules, and the streams and events created on the device. A pending
// asynchronous launch error is reported one final time and cleared
// along with the rest of the device state.
func (r *Runtime) DeviceReset() (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cur().Reset()
	for id, m := range r.modules {
		if m.dev == r.current {
			delete(r.modules, id)
		}
	}
	maps.DeleteFunc(r.streams, func(_ Stream, st *streamState) bool { return st.dev == r.current })
	maps.DeleteFunc(r.events, func(_ Event, ev *eventState) bool { return ev.dev == r.current })
	err := r.asyncPending()
	r.asyncErr = Success
	return r.charge(50 * time.Microsecond), err
}

// Live reports whether id still names a module, stream or event
// (handles of every kind share one id sequence, so an id names at most
// one). It charges no simulated time and reports no pending error: it
// serves the server's own bookkeeping after a DeviceReset, not a
// forwarded CUDA call.
func (r *Runtime) Live(id uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, mod := r.modules[Module(id)]
	_, st := r.streams[Stream(id)]
	_, ev := r.events[Event(id)]
	return mod || st || ev
}

// SetHandleLimit caps the number of live streams and events combined
// (the default stream does not count); zero removes the cap. Creation
// beyond the cap fails with ErrorMemoryAllocation, the code real
// drivers use when per-context resources are exhausted.
func (r *Runtime) SetHandleLimit(n int) {
	r.mu.Lock()
	r.handleLimit = n
	r.mu.Unlock()
}

// handleRoom reports whether another stream/event handle fits under
// the cap. Called with r.mu held.
func (r *Runtime) handleRoom() bool {
	if r.handleLimit <= 0 {
		return true
	}
	return len(r.streams)-1+len(r.events) < r.handleLimit
}

// StreamCreate returns a new stream handle (cudaStreamCreate).
func (r *Runtime) StreamCreate() (Stream, time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.handleRoom() {
		return 0, r.charge(400 * time.Nanosecond), r.note(ErrorMemoryAllocation)
	}
	r.nextID++
	s := Stream(r.nextID)
	r.streams[s] = &streamState{dev: r.current}
	return s, r.charge(900 * time.Nanosecond), nil
}

// StreamDestroy releases a stream (cudaStreamDestroy).
func (r *Runtime) StreamDestroy(s Stream) (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s == 0 {
		return r.charge(200 * time.Nanosecond), r.note(ErrorInvalidHandle)
	}
	if _, ok := r.streams[s]; !ok {
		return r.charge(200 * time.Nanosecond), r.note(ErrorInvalidHandle)
	}
	delete(r.streams, s)
	return r.charge(600 * time.Nanosecond), nil
}

// StreamSynchronize waits for a stream (cudaStreamSynchronize).
func (r *Runtime) StreamSynchronize(s Stream) (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.streams[s]; !ok {
		return r.charge(200 * time.Nanosecond), r.note(ErrorInvalidHandle)
	}
	return r.charge(800 * time.Nanosecond), nil
}

// now returns the current simulated time, runtime-local if no shared
// clock was provided.
func (r *Runtime) now() time.Duration {
	if r.clock != nil {
		return r.clock.Now()
	}
	return 0
}

// EventCreate returns a new event handle (cudaEventCreate).
func (r *Runtime) EventCreate() (Event, time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.handleRoom() {
		return 0, r.charge(400 * time.Nanosecond), r.note(ErrorMemoryAllocation)
	}
	r.nextID++
	e := Event(r.nextID)
	r.events[e] = &eventState{dev: r.current}
	return e, r.charge(700 * time.Nanosecond), nil
}

// EventRecord timestamps an event on a stream (cudaEventRecord).
func (r *Runtime) EventRecord(e Event, s Stream) (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ev, ok := r.events[e]
	if !ok {
		return r.charge(200 * time.Nanosecond), r.note(ErrorInvalidHandle)
	}
	if _, ok := r.streams[s]; !ok {
		return r.charge(200 * time.Nanosecond), r.note(ErrorInvalidHandle)
	}
	ev.recorded = true
	ev.at = r.now()
	return r.charge(500 * time.Nanosecond), nil
}

// EventElapsed returns the simulated milliseconds between two recorded
// events (cudaEventElapsedTime).
func (r *Runtime) EventElapsed(start, end Event) (float32, time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, okA := r.events[start]
	b, okB := r.events[end]
	if !okA || !okB {
		return 0, r.charge(200 * time.Nanosecond), r.note(ErrorInvalidHandle)
	}
	if !a.recorded || !b.recorded {
		return 0, r.charge(200 * time.Nanosecond), r.note(ErrorInvalidValue)
	}
	ms := float32(b.at-a.at) / float32(time.Millisecond)
	return ms, r.charge(300 * time.Nanosecond), nil
}

// EventDestroy releases an event (cudaEventDestroy).
func (r *Runtime) EventDestroy(e Event) (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.events[e]; !ok {
		return r.charge(200 * time.Nanosecond), r.note(ErrorInvalidHandle)
	}
	delete(r.events, e)
	return r.charge(400 * time.Nanosecond), nil
}

// ModuleLoad parses a cubin or fat binary, selects the image matching
// the current device, registers its kernels against the built-in
// registry, and allocates its global variables (cuModuleLoadData).
func (r *Runtime) ModuleLoad(image []byte) (Module, time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dev := r.cur()
	img, err := loadImageFor(image, dev.Spec().Arch)
	if err != nil {
		return 0, r.charge(5 * time.Microsecond), r.note(ErrorInvalidImage)
	}
	// Verify every kernel has a built-in implementation ("SASS" we
	// know how to execute).
	for i := range img.Kernels {
		if _, ok := builtinKernels[img.Kernels[i].Name]; !ok {
			return 0, r.charge(5 * time.Microsecond), r.note(ErrorNoBinaryForGPU)
		}
	}
	ms := &moduleState{img: img, dev: r.current, globals: make(map[string]gpu.Ptr)}
	// Allocate and zero global variables.
	var total time.Duration
	for _, g := range img.Globals {
		p, d, err := dev.Malloc(g.Size)
		if err != nil {
			return 0, r.charge(total), r.note(ErrorMemoryAllocation)
		}
		total += d
		if d2, err := dev.Memset(p, 0, g.Size); err == nil {
			total += d2
		}
		ms.globals[g.Name] = p
	}
	for i := range img.Kernels {
		k := &img.Kernels[i]
		if !dev.HasKernel(k.Name) {
			dev.RegisterKernel(k.Name, builtinKernels[k.Name])
		}
	}
	r.nextID++
	h := Module(r.nextID)
	r.modules[h] = ms
	// Module load cost scales with image size (JIT/verification).
	total += 40*time.Microsecond + time.Duration(len(image)/64)*time.Nanosecond
	return h, r.charge(total), nil
}

// loadImageFor accepts a bare cubin, a compressed cubin, or a fatbin
// and returns the image for the given architecture.
func loadImageFor(data []byte, arch uint32) (*cubin.Image, error) {
	if img, err := cubin.Parse(data); err == nil {
		return img, nil
	}
	if fb, err := cubin.ParseFat(data); err == nil {
		return fb.ImageForArch(arch)
	}
	raw, err := cubin.Decompress(data)
	if err != nil {
		return nil, err
	}
	return cubin.Parse(raw)
}

// ModuleUnload releases a module and its globals (cuModuleUnload).
func (r *Runtime) ModuleUnload(m Module) (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms, ok := r.modules[m]
	if !ok {
		return r.charge(200 * time.Nanosecond), r.note(ErrorInvalidHandle)
	}
	dev := r.devices[ms.dev]
	var total time.Duration
	for _, p := range ms.globals {
		if d, err := dev.Free(p); err == nil {
			total += d
		}
	}
	delete(r.modules, m)
	// Drop function handles pointing into the module.
	for h, f := range r.functions {
		if f.mod == m {
			delete(r.functions, h)
		}
	}
	return r.charge(total + 10*time.Microsecond), nil
}

// ModuleGetFunction resolves a kernel name to a function handle
// (cuModuleGetFunction).
func (r *Runtime) ModuleGetFunction(m Module, name string) (Function, time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms, ok := r.modules[m]
	if !ok {
		return 0, r.charge(200 * time.Nanosecond), r.note(ErrorInvalidHandle)
	}
	k, ok := ms.img.Kernel(name)
	if !ok {
		return 0, r.charge(400 * time.Nanosecond), r.note(ErrorNotFound)
	}
	r.nextID++
	h := Function(r.nextID)
	layout := make([]gpu.ArgSlot, len(k.Params))
	for i, p := range k.Params {
		layout[i] = gpu.ArgSlot{Off: p.Offset, Size: p.Size, Pointer: p.Kind == cubin.ParamPointer}
	}
	r.functions[h] = &funcState{mod: m, kernel: k, layout: layout}
	return h, r.charge(600 * time.Nanosecond), nil
}

// ModuleGetGlobal resolves a global variable to its device pointer and
// size (cuModuleGetGlobal).
func (r *Runtime) ModuleGetGlobal(m Module, name string) (gpu.Ptr, uint64, time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms, ok := r.modules[m]
	if !ok {
		return 0, 0, r.charge(200 * time.Nanosecond), r.note(ErrorInvalidHandle)
	}
	p, ok := ms.globals[name]
	if !ok {
		return 0, 0, r.charge(400 * time.Nanosecond), r.note(ErrorNotFound)
	}
	g, _ := ms.img.Global(name)
	return p, g.Size, r.charge(500 * time.Nanosecond), nil
}

// LaunchKernel launches a function with a raw argument buffer laid out
// per the kernel's cubin parameter metadata (cuLaunchKernel) and
// charges the kernel duration. The kernel runs without r.mu, since it
// may wait for a transfer's pin on an argument.
func (r *Runtime) LaunchKernel(f Function, grid, block gpu.Dim3, sharedMem uint32, s Stream, argBuf []byte) (time.Duration, error) {
	r.mu.Lock()
	fs, ok := r.functions[f]
	if !ok {
		defer r.mu.Unlock()
		return 0, r.note(ErrorInvalidDeviceFunction)
	}
	if _, ok := r.streams[s]; !ok {
		defer r.mu.Unlock()
		return 0, r.note(ErrorInvalidHandle)
	}
	dev := r.devices[r.modules[fs.mod].dev]
	r.mu.Unlock()
	// fs's kernel and layout never change once ModuleGetFunction
	// made it.
	cfg := gpu.LaunchConfig{Grid: grid, Block: block, SharedMem: sharedMem + fs.kernel.SharedMem}
	dur, err := dev.Launch(fs.kernel.Name, cfg, argBuf, fs.layout)
	if err != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		var code Error
		switch {
		case errors.Is(err, gpu.ErrBadLaunch):
			code = ErrorLaunchOutOfResources
		default:
			code = ErrorLaunchFailure
		}
		// A failed launch also poisons the device until the next
		// synchronize, CUDA's async-error model.
		r.asyncErr = code
		return 0, r.note(code)
	}
	return r.charge(dur), nil
}
