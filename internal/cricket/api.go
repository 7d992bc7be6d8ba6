package cricket

import (
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
)

// API is the forwarded CUDA surface a Client and a Session share.
// Code that only issues CUDA calls (core.VirtualGPU, the proxy
// applications, benchmarks) is written against it and runs unchanged
// on either: a Client is the plain synchronous stub layer, a Session
// adds fault tolerance and owns the BATCH_EXEC queue.
type API interface {
	Ping() error
	GetDeviceCount() (int, error)
	GetDeviceProperties(dev int) (cuda.DeviceProp, error)
	SetDevice(dev int) error
	GetDevice() (int, error)
	Malloc(size uint64) (gpu.Ptr, error)
	Free(p gpu.Ptr) error
	MemcpyHtoD(dst gpu.Ptr, data []byte) error
	MemcpyHtoDAsync(dst gpu.Ptr, data []byte, s cuda.Stream) error
	MemcpyDtoH(src gpu.Ptr, n uint64) ([]byte, error)
	MemcpyDtoHInto(src gpu.Ptr, dst []byte) error
	MemcpyDtoD(dst, src gpu.Ptr, n uint64) error
	Memset(p gpu.Ptr, value byte, n uint64) error
	MemGetInfo() (free, total uint64, err error)
	DeviceSynchronize() error
	DeviceReset() error
	StreamCreate() (cuda.Stream, error)
	StreamDestroy(s cuda.Stream) error
	StreamSynchronize(s cuda.Stream) error
	EventCreate() (cuda.Event, error)
	EventRecord(ev cuda.Event, s cuda.Stream) error
	EventElapsed(start, end cuda.Event) (float32, error)
	EventDestroy(ev cuda.Event) error
	ModuleLoad(image []byte) (cuda.Module, error)
	ModuleUnload(m cuda.Module) error
	ModuleGetFunction(m cuda.Module, name string) (cuda.Function, error)
	ModuleGetGlobal(m cuda.Module, name string) (gpu.Ptr, uint64, error)
	LaunchKernel(f cuda.Function, grid, block gpu.Dim3, sharedMem uint32, s cuda.Stream, args []byte) error
	Checkpoint() error
	Restore() error

	// Stats returns the cumulative client-side counters.
	Stats() Stats
	// SimNow returns the virtual time, or zero without simulation.
	SimNow() time.Duration
	// Transfer returns the effective bulk-transfer method.
	Transfer() TransferMethod
	Close() error
}
