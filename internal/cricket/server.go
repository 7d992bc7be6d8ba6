// Package cricket implements the paper's GPU virtualization layer:
// a Cricket server that executes forwarded CUDA API calls against GPU
// devices, and a client-side shim that exposes the CUDA API to
// applications while transporting every call over ONC RPC.
//
// The protocol is defined in cricket.x (RPCL); gen_cricket.go is
// produced from it by cmd/rpcgen, mirroring how the real Cricket
// generates its C server with rpcgen and its Rust client with
// RPC-Lib's procedural macros.
//
// The package also implements the Cricket features the paper builds
// on: multiple memory-transfer methods (inline RPC arguments, parallel
// sockets, shared memory, and InfiniBand-style direct transfer — only
// the first usable from unikernels), checkpoint/restart of device
// state, and a scheduler for sharing one GPU among many unikernel
// clients.
package cricket

//go:generate go run ../../cmd/rpcgen -pkg cricket -o gen_cricket.go cricket.x

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/obs"
	"cricket/internal/oncrpc"
)

// TransferMethod selects how bulk memory moves between client and
// server (paper §4.2).
type TransferMethod int32

// Transfer methods.
const (
	// TransferRPCArgs ships data inline in RPC arguments over the
	// control connection — the only method available to unikernels
	// and to RPC-Lib clients.
	TransferRPCArgs TransferMethod = iota
	// TransferParallelSockets streams data over multiple TCP
	// connections with multiple threads.
	TransferParallelSockets
	// TransferSharedMem maps a buffer shared between client and
	// server; only possible when both run on the same host.
	TransferSharedMem
	// TransferRDMA uses GPUDirect-RDMA-style direct placement over
	// InfiniBand.
	TransferRDMA
)

func (m TransferMethod) String() string {
	switch m {
	case TransferRPCArgs:
		return "rpc-args"
	case TransferParallelSockets:
		return "parallel-sockets"
	case TransferSharedMem:
		return "shared-memory"
	case TransferRDMA:
		return "rdma"
	}
	return "unknown"
}

// TransferMethodByName resolves a method from its canonical name (as
// printed by String) or a short alias (inline, sockets, shm).
func TransferMethodByName(name string) (TransferMethod, bool) {
	switch name {
	case "rpc-args", "inline":
		return TransferRPCArgs, true
	case "parallel-sockets", "sockets":
		return TransferParallelSockets, true
	case "shared-memory", "shm":
		return TransferSharedMem, true
	case "rdma":
		return TransferRDMA, true
	}
	return 0, false
}

// ServerStats are cumulative counters for one Cricket server.
type ServerStats struct {
	Calls          uint64
	BytesToGPU     uint64
	BytesFromGPU   uint64
	KernelLaunches uint64
	Checkpoints    uint64
	Restores       uint64

	// Resource governance (see lease.go).
	LeasesGranted    uint64 // fresh leases issued by SRV_ATTACH
	LeasesExpired    uint64 // leases reclaimed by the expiry sweeper
	ReclaimedBytes   uint64 // device bytes freed by lease reclamation
	ReclaimedHandles uint64 // handles freed by lease reclamation
	CallsShed        uint64 // calls rejected by admission control

	// Scale-to-zero (see park.go).
	Parks uint64 // final-checkpoint parks taken
}

// A Server executes forwarded CUDA calls against a runtime. With the
// per-connection serverConn in front of it (lease.go) it implements
// the generated RpcCdVersHandler interface; attach it to an
// oncrpc.Server with Attach. One Server may be shared by any number of
// client connections — that sharing is the point of Cricket: many
// unikernels, one GPU.
type Server struct {
	rt    *cuda.Runtime
	epoch uint64 // random per-instance id, exposed via SRV_GET_EPOCH

	mu        sync.Mutex
	stats     ServerStats
	snapshots map[int]*gpu.Snapshot // device ordinal -> latest checkpoint
	ckpDir    string                // when set, checkpoints persist here

	// execMu serializes checkpoint/restore against batches in flight
	// on *other* connections: BatchExec holds it shared for the whole
	// entry loop, CkpCheckpoint/CkpRestore hold it exclusively around
	// the snapshot. Without it a snapshot could land between two
	// entries of one batch and capture a half-executed batch — a
	// checkpoint the client believes is flush-then-snapshot but isn't.
	// Individual (unbatched) calls need no gate: they are atomic units.
	execMu      sync.RWMutex
	sched       *Scheduler
	attached    []*oncrpc.Server // RPC servers this Server is registered on
	noSharedMem bool             // reject TransferSharedMem negotiation
	parked      bool             // scaled to zero: shed every governed call (park.go)

	// Resource governance (lease.go), all under mu. clock is the
	// lease timebase, overridable in tests.
	limits       Limits
	leases       map[uint64]*lease
	leaseByNonce map[uint64]*lease
	leaseSeq     uint64
	inflight     int
	reserved     map[*serverConn]time.Time // connections shed for MaxInflight, until when the gate keeps a slot for each
	clock        func() time.Time

	// dataStall is the part of a data-channel frame's time limit that
	// does not scale with its payload (frameLimit), overridable in
	// tests.
	dataStall time.Duration

	// collector, when set, receives per-call spans and histograms.
	// Accessed atomically so observability can be toggled while
	// serving; nil means disabled (the default).
	collector atomic.Pointer[obs.Collector]

	// execModel, when set, runs once per admitted call before the
	// procedure executes — a stand-in for device execution cost so
	// load tests and admission tuning have a real saturation point.
	// Shed calls never run it. Accessed atomically.
	execModel atomic.Pointer[func()]

	// ErrorLog, when set, receives server-side failures.
	ErrorLog *log.Logger
}

// NewServer wraps a CUDA runtime.
func NewServer(rt *cuda.Runtime) *Server {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("cricket: no entropy for server epoch: " + err.Error())
	}
	return &Server{
		rt:           rt,
		epoch:        binary.LittleEndian.Uint64(b[:]) | 1, // never zero
		snapshots:    make(map[int]*gpu.Snapshot),
		sched:        NewScheduler(PolicyFIFO, 0),
		leases:       make(map[uint64]*lease),
		leaseByNonce: make(map[uint64]*lease),
		clock:        time.Now,
		dataStall:    defaultDataStall,
	}
}

// Epoch returns the server instance's random boot epoch.
func (s *Server) Epoch() uint64 { return s.epoch }

// Attach registers the Cricket program on an RPC server. Every
// connection gets its own dispatcher — the admission gate, carrying
// lease state (see lease.go); the underlying Server is shared.
// When an observer is (or later becomes) installed, the RPC server's
// dispatch trace feeds it, so server spans join client spans by trace
// id.
func (s *Server) Attach(rpcSrv *oncrpc.Server) {
	rpcSrv.RegisterConn(RpcCdProg, RpcCdVers, func() oncrpc.Dispatcher { return &serverConn{Server: s} })
	s.mu.Lock()
	s.attached = append(s.attached, rpcSrv)
	s.mu.Unlock()
	if s.collector.Load() != nil {
		rpcSrv.SetTrace(s.serverTrace())
	}
}

// SetObserver installs (or with nil removes) the observability
// collector: per-procedure server histograms, device-time histograms,
// and server-side spans joined to client spans by the propagated call
// id. Safe to call while serving.
func (s *Server) SetObserver(col *obs.Collector) {
	s.collector.Store(col)
	s.sched.SetObserver(col)
	s.mu.Lock()
	attached := append([]*oncrpc.Server(nil), s.attached...)
	s.mu.Unlock()
	var tr *oncrpc.ServerTrace
	if col != nil {
		tr = s.serverTrace()
	}
	for _, rpcSrv := range attached {
		rpcSrv.SetTrace(tr)
	}
}

// Observer returns the installed collector, or nil.
func (s *Server) Observer() *obs.Collector { return s.collector.Load() }

// observeDevice records the runtime's simulated duration for proc
// when observability is on. One nil check when it is off.
func (s *Server) observeDevice(proc uint32, d time.Duration) {
	if col := s.collector.Load(); col != nil {
		col.ObserveDevice(proc, d)
	}
}

// SetExecModel installs (or with nil removes) a hook run once per
// admitted call, after admission control and while the call counts
// against MaxInflight. Benchmarks install a model of device execution
// — typically a K-slot semaphore plus a service time, standing in for
// a K-way-parallel GPU — so the admission controller has a genuine
// latency/throughput knee to find. Safe to call while serving.
func (s *Server) SetExecModel(f func()) {
	if f == nil {
		s.execModel.Store(nil)
		return
	}
	s.execModel.Store(&f)
}

// Scheduler returns the server's client scheduler.
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Stats returns a copy of the cumulative counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Runtime exposes the underlying CUDA runtime (for local tooling).
func (s *Server) Runtime() *cuda.Runtime { return s.rt }

func (s *Server) count(f func(*ServerStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// addServerBytes bumps the transfer-volume counters without the
// count closure: the shm ring consumer and the data channels sit on
// allocation-free hot paths, and a captured-variable closure per
// frame would break their 0 allocs/op pin.
func (s *Server) addServerBytes(toGPU bool, n uint64) {
	s.mu.Lock()
	if toGPU {
		s.stats.BytesToGPU += n
	} else {
		s.stats.BytesFromGPU += n
	}
	s.mu.Unlock()
}

// errCode converts a runtime error to the in-band CUDA status code.
func errCode(err error) int32 { return int32(cuda.Code(err)) }

// RpcNull implements the ping procedure.
func (s *Server) RpcNull() error {
	s.count(func(st *ServerStats) { st.Calls++ })
	return nil
}

// CudaGetDeviceCount implements cudaGetDeviceCount. Runtime errors
// (a pending async launch failure) travel in-band like every other
// handler's.
func (s *Server) CudaGetDeviceCount() (IntResult, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	n, d, err := s.rt.GetDeviceCount()
	s.observeDevice(ProcCudaGetDeviceCount, d)
	if err != nil {
		return IntResult{Err: errCode(err)}, nil
	}
	return IntResult{Err: 0, Value: int32(n)}, nil
}

// CudaGetDeviceProperties implements cudaGetDeviceProperties.
func (s *Server) CudaGetDeviceProperties(dev int32) (PropResult, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	p, d, err := s.rt.GetDeviceProperties(int(dev))
	s.observeDevice(ProcCudaGetDeviceProperties, d)
	if err != nil {
		return PropResult{Err: errCode(err)}, nil
	}
	return PropResult{Err: 0, Prop: RpcDevProp{
		Name:                p.Name,
		TotalGlobalMem:      p.TotalGlobalMem,
		Major:               p.Major,
		Minor:               p.Minor,
		MultiProcessorCount: p.MultiProcessorCount,
		ClockRateKhz:        p.ClockRateKHz,
		MaxThreadsPerBlock:  p.MaxThreadsPerBlock,
		SharedMemPerBlock:   p.SharedMemPerBlock,
		MemoryBandwidthGbps: p.MemoryBandwidthGBps,
	}}, nil
}

// CudaSetDevice implements cudaSetDevice.
func (s *Server) CudaSetDevice(dev int32) (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	d, err := s.rt.SetDevice(int(dev))
	s.observeDevice(ProcCudaSetDevice, d)
	return errCode(err), nil
}

// CudaGetDevice implements cudaGetDevice. Runtime errors travel
// in-band like every other handler's.
func (s *Server) CudaGetDevice() (IntResult, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	dev, d, err := s.rt.GetDevice()
	s.observeDevice(ProcCudaGetDevice, d)
	if err != nil {
		return IntResult{Err: errCode(err)}, nil
	}
	return IntResult{Err: 0, Value: int32(dev)}, nil
}

// CudaMalloc implements cudaMalloc.
func (s *Server) CudaMalloc(size uint64) (PtrResult, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	p, d, err := s.rt.Malloc(size)
	s.observeDevice(ProcCudaMalloc, d)
	if err != nil {
		return PtrResult{Err: errCode(err)}, nil
	}
	return PtrResult{Err: 0, Ptr: uint64(p)}, nil
}

// CudaFree implements cudaFree.
func (s *Server) CudaFree(ptr uint64) (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	d, err := s.rt.Free(gpu.Ptr(ptr))
	s.observeDevice(ProcCudaFree, d)
	return errCode(err), nil
}

// CudaMemcpyHtod implements cudaMemcpy(..., cudaMemcpyHostToDevice).
// Transfer counters record only bytes that actually reached the GPU.
func (s *Server) CudaMemcpyHtod(dst uint64, data MemData) (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	d, err := s.rt.MemcpyHtoD(gpu.Ptr(dst), data)
	s.observeDevice(ProcCudaMemcpyHtod, d)
	if err == nil {
		s.count(func(st *ServerStats) { st.BytesToGPU += uint64(len(data)) })
	}
	return errCode(err), nil
}

// CudaMemcpyDtod implements cudaMemcpy(..., cudaMemcpyDeviceToDevice).
func (s *Server) CudaMemcpyDtod(dst, src, n uint64) (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	_, err := s.rt.MemcpyDtoD(gpu.Ptr(dst), gpu.Ptr(src), n)
	return errCode(err), nil
}

// CudaMemset implements cudaMemset.
func (s *Server) CudaMemset(ptr uint64, value uint32, n uint64) (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	d, err := s.rt.Memset(gpu.Ptr(ptr), byte(value), n)
	s.observeDevice(ProcCudaMemset, d)
	return errCode(err), nil
}

// CudaMemGetInfo implements cudaMemGetInfo. Runtime errors travel
// in-band like every other handler's.
func (s *Server) CudaMemGetInfo() (MemInfoResult, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	free, total, d, err := s.rt.MemGetInfo()
	s.observeDevice(ProcCudaMemGetInfo, d)
	if err != nil {
		return MemInfoResult{Err: errCode(err)}, nil
	}
	return MemInfoResult{Err: 0, Info: MemInfo{FreeMem: free, TotalMem: total}}, nil
}

// CudaDeviceSynchronize implements cudaDeviceSynchronize. It reports
// deferred errors from asynchronous work (failed launches), like the
// real call.
func (s *Server) CudaDeviceSynchronize() (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	d, err := s.rt.DeviceSynchronize()
	s.observeDevice(ProcCudaDeviceSynchronize, d)
	return errCode(err), nil
}

// CudaDeviceReset implements cudaDeviceReset. A pending async launch
// error is reported in-band one final time, then cleared by the
// reset.
func (s *Server) CudaDeviceReset() (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	d, err := s.rt.DeviceReset()
	s.observeDevice(ProcCudaDeviceReset, d)
	return errCode(err), nil
}

// CudaStreamCreate implements cudaStreamCreate.
func (s *Server) CudaStreamCreate() (HandleResult, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	h, _, err := s.rt.StreamCreate()
	if err != nil {
		return HandleResult{Err: errCode(err)}, nil
	}
	return HandleResult{Err: 0, Handle: uint64(h)}, nil
}

// CudaStreamDestroy implements cudaStreamDestroy.
func (s *Server) CudaStreamDestroy(h uint64) (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	_, err := s.rt.StreamDestroy(cuda.Stream(h))
	return errCode(err), nil
}

// CudaStreamSynchronize implements cudaStreamSynchronize.
func (s *Server) CudaStreamSynchronize(h uint64) (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	_, err := s.rt.StreamSynchronize(cuda.Stream(h))
	return errCode(err), nil
}

// CudaEventCreate implements cudaEventCreate.
func (s *Server) CudaEventCreate() (HandleResult, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	h, _, err := s.rt.EventCreate()
	if err != nil {
		return HandleResult{Err: errCode(err)}, nil
	}
	return HandleResult{Err: 0, Handle: uint64(h)}, nil
}

// CudaEventRecord implements cudaEventRecord.
func (s *Server) CudaEventRecord(ev, stream uint64) (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	_, err := s.rt.EventRecord(cuda.Event(ev), cuda.Stream(stream))
	return errCode(err), nil
}

// CudaEventElapsed implements cudaEventElapsedTime.
func (s *Server) CudaEventElapsed(start, end uint64) (FloatResult, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	ms, _, err := s.rt.EventElapsed(cuda.Event(start), cuda.Event(end))
	if err != nil {
		return FloatResult{Err: errCode(err)}, nil
	}
	return FloatResult{Err: 0, Value: ms}, nil
}

// CudaEventDestroy implements cudaEventDestroy.
func (s *Server) CudaEventDestroy(ev uint64) (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	_, err := s.rt.EventDestroy(cuda.Event(ev))
	return errCode(err), nil
}

// CuModuleLoad implements cuModuleLoadData: the client ships cubin
// bytes (read from a file on its side), the server parses, registers,
// and allocates.
func (s *Server) CuModuleLoad(image MemData) (HandleResult, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	m, d, err := s.rt.ModuleLoad(image)
	s.observeDevice(ProcCuModuleLoad, d)
	if err != nil {
		return HandleResult{Err: errCode(err)}, nil
	}
	s.count(func(st *ServerStats) { st.BytesToGPU += uint64(len(image)) })
	return HandleResult{Err: 0, Handle: uint64(m)}, nil
}

// CuModuleUnload implements cuModuleUnload.
func (s *Server) CuModuleUnload(m uint64) (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	_, err := s.rt.ModuleUnload(cuda.Module(m))
	return errCode(err), nil
}

// CuModuleGetFunction implements cuModuleGetFunction.
func (s *Server) CuModuleGetFunction(m uint64, name string) (HandleResult, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	f, _, err := s.rt.ModuleGetFunction(cuda.Module(m), name)
	if err != nil {
		return HandleResult{Err: errCode(err)}, nil
	}
	return HandleResult{Err: 0, Handle: uint64(f)}, nil
}

// CuModuleGetGlobal implements cuModuleGetGlobal.
func (s *Server) CuModuleGetGlobal(m uint64, name string) (GlobalResult, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	p, size, _, err := s.rt.ModuleGetGlobal(cuda.Module(m), name)
	if err != nil {
		return GlobalResult{Err: errCode(err)}, nil
	}
	return GlobalResult{Err: 0, Info: GlobalInfo{Ptr: uint64(p), Size: size}}, nil
}

// CuLaunchKernel implements cuLaunchKernel.
func (s *Server) CuLaunchKernel(a LaunchArgs) (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++; st.KernelLaunches++ })
	grid := gpu.Dim3{X: a.GridX, Y: a.GridY, Z: a.GridZ}
	block := gpu.Dim3{X: a.BlockX, Y: a.BlockY, Z: a.BlockZ}
	d, err := s.rt.LaunchKernel(cuda.Function(a.Func), grid, block, a.SharedMem, cuda.Stream(a.Stream), a.Params)
	s.observeDevice(ProcCuLaunchKernel, d)
	if err != nil && s.ErrorLog != nil {
		s.ErrorLog.Printf("cricket: launch failed: %v", err)
	}
	return errCode(err), nil
}

// BatchExec executes a batch of queued asynchronous calls strictly in
// submission order and returns one CUDA status code per entry.
// Execution does not stop at a failed entry: like a CUDA stream whose
// launch faulted, later entries still run (the simulated runtime keeps
// them independent), and the client decides which error to surface.
// Stats count each entry as one call, so a batching client is
// indistinguishable from an unbatched one in the server's accounting.
// A MEMCPY_DTOH entry fails here with cudaErrorInvalidValue: only
// BATCH_EXEC_READ has a reply to carry its bytes.
//
// A connection's BATCH_EXEC and BATCH_EXEC_READ calls never reach this
// method or BatchExecRead: serverConn.Dispatch serves them through
// execBatch with the connection's reused buffers. These two are the
// generated interface's entry points for direct callers.
func (s *Server) BatchExec(a BatchArgs) (BatchResult, error) {
	status, _ := s.execBatch(a.Entries, nil, nil, false)
	return BatchResult{Status: status}, nil
}

// BatchExecRead is BatchExec whose last entry may be a MEMCPY_DTOH,
// read into the reply.
func (s *Server) BatchExecRead(a BatchArgs) (BatchReadResult, error) {
	status, data := s.execBatch(a.Entries, nil, nil, true)
	return BatchReadResult{Status: status, Data: data}, nil
}

// execBatch runs entries in order, writing their codes into status;
// with read set, a MEMCPY_DTOH that is the batch's last entry reads
// into out, and any other fails with cudaErrorInvalidValue, so one
// batch reads at most one allocation's bytes, as one CUDA_MEMCPY_DTOH
// does. status and out are grown when short and returned, so a
// connection reuses them across batches. A read that does not fit
// out's capacity takes the buffer the runtime allocates once it has
// validated the range, so a bad (ptr, n) never sizes anything.
func (s *Server) execBatch(entries []BatchEntry, status []int32, out []byte, read bool) ([]int32, []byte) {
	// Per-entry observability mirrors the per-entry Stats accounting:
	// with a collector installed, every entry yields a server span
	// joined (via the entry's propagated trace id) to the client's
	// per-entry span, plus histogram samples under the entry's logical
	// procedure. Disabled, the loop pays one nil check up front.
	col := s.collector.Load()
	if cap(status) < len(entries) {
		status = make([]int32, len(entries))
	}
	status = status[:len(entries)]
	out = out[:0]
	// A batch is one logical unit to checkpoint/restore: hold the
	// shared side of execMu across the whole entry loop so a snapshot
	// from another connection never lands mid-batch. Batches still run
	// concurrently with each other.
	s.execMu.RLock()
	defer s.execMu.RUnlock()
	for i := range entries {
		e := &entries[i]
		var err error
		var dev time.Duration
		var t0 time.Time
		if col != nil {
			t0 = time.Now()
		}
		switch e.Op {
		case BatchOpLaunch:
			s.count(func(st *ServerStats) { st.Calls++; st.KernelLaunches++ })
			grid := gpu.Dim3{X: e.GridX, Y: e.GridY, Z: e.GridZ}
			block := gpu.Dim3{X: e.BlockX, Y: e.BlockY, Z: e.BlockZ}
			dev, err = s.rt.LaunchKernel(cuda.Function(e.Handle), grid, block, e.Value, cuda.Stream(e.Stream), e.Data)
			if err != nil && s.ErrorLog != nil {
				s.ErrorLog.Printf("cricket: batched launch failed: %v", err)
			}
		case BatchOpMemcpyHtod:
			s.count(func(st *ServerStats) { st.Calls++ })
			dev, err = s.rt.MemcpyHtoD(gpu.Ptr(e.Handle), e.Data)
			if err == nil {
				s.addServerBytes(true, uint64(len(e.Data)))
			}
		case BatchOpMemset:
			s.count(func(st *ServerStats) { st.Calls++ })
			dev, err = s.rt.Memset(gpu.Ptr(e.Handle), byte(e.Value), e.N)
		case BatchOpEventRecord:
			s.count(func(st *ServerStats) { st.Calls++ })
			dev, err = s.rt.EventRecord(cuda.Event(e.Handle), cuda.Stream(e.Stream))
		case BatchOpStreamSync:
			s.count(func(st *ServerStats) { st.Calls++ })
			dev, err = s.rt.StreamSynchronize(cuda.Stream(e.Stream))
		case BatchOpSetDevice:
			s.count(func(st *ServerStats) { st.Calls++ })
			ord := -1 // an ordinal past int32, as CUDA_SET_DEVICE carries it, is no device
			if e.Handle <= math.MaxInt32 {
				ord = int(e.Handle)
			}
			dev, err = s.rt.SetDevice(ord)
		case BatchOpMemcpyDtoh:
			s.count(func(st *ServerStats) { st.Calls++ })
			if !read || i != len(entries)-1 {
				err = cuda.ErrorInvalidValue
				break
			}
			if e.N <= uint64(cap(out)) {
				dev, err = s.rt.MemcpyDtoHInto(gpu.Ptr(e.Handle), out[:e.N])
				if err == nil {
					out = out[:e.N]
				}
			} else {
				var b []byte
				if b, dev, err = s.rt.MemcpyDtoH(gpu.Ptr(e.Handle), e.N); err == nil {
					out = b
				}
			}
			if err == nil {
				s.addServerBytes(false, e.N)
			}
		default:
			s.count(func(st *ServerStats) { st.Calls++ })
			err = cuda.ErrorInvalidValue
		}
		status[i] = errCode(err)
		if col != nil {
			wall := time.Since(t0)
			proc := batchProc(e.Op)
			col.ObserveServer(proc, wall)
			col.ObserveDevice(proc, dev)
			col.RecordSpan(obs.Span{
				CallID: e.TraceId, Entry: int32(i), Proc: proc,
				Side: obs.SideServer, Stage: obs.StageRuntime,
				Start: col.Now() - int64(wall), Dur: int64(wall),
				Sim: int64(dev), Err: status[i],
			})
		}
	}
	return status, out
}

// CkpCheckpoint captures the current device's full memory state. A
// failed snapshot is reported in-band and never installed as the
// device's latest checkpoint. When a checkpoint directory is
// configured, the snapshot is also persisted there so it survives
// server restarts.
func (s *Server) CkpCheckpoint() (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	dev, _, _ := s.rt.GetDevice()
	d, err := s.rt.Device(dev)
	if err != nil {
		return errCode(err), nil
	}
	// Exclusive against in-flight batches: the snapshot waits for
	// every running BatchExec to finish and blocks new ones, so it
	// always captures whole batches (see execMu).
	s.execMu.Lock()
	defer s.execMu.Unlock()
	snap, _, err := d.Snapshot()
	if err != nil {
		if s.ErrorLog != nil {
			s.ErrorLog.Printf("cricket: checkpoint failed: %v", err)
		}
		return int32(cuda.ErrorMemoryAllocation), nil
	}
	s.mu.Lock()
	s.snapshots[dev] = snap
	s.stats.Checkpoints++
	dir := s.ckpDir
	s.mu.Unlock()
	if dir != "" {
		if err := writeCheckpointFile(dir, dev, snap); err != nil {
			if s.ErrorLog != nil {
				s.ErrorLog.Printf("cricket: persisting checkpoint: %v", err)
			}
			return int32(cuda.ErrorUnknown), nil
		}
	}
	return 0, nil
}

// CkpRestore restores the most recent checkpoint of the current
// device. With no checkpoint it returns cudaErrorInvalidValue
// in-band.
func (s *Server) CkpRestore() (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++; st.Restores++ })
	dev, _, _ := s.rt.GetDevice()
	s.mu.Lock()
	snap := s.snapshots[dev]
	s.mu.Unlock()
	if snap == nil {
		return int32(cuda.ErrorInvalidValue), nil
	}
	d, err := s.rt.Device(dev)
	if err != nil {
		return errCode(err), nil
	}
	s.execMu.Lock()
	d.RestoreSnapshot(snap)
	s.execMu.Unlock()
	return 0, nil
}

// MtSetTransfer negotiates the bulk transfer method. Validation is
// per-method: the socket count only parameterizes
// TransferParallelSockets, where it must be at least 1 — zero or
// negative counts would negotiate a data path with no connections.
// The socketless methods (RPC arguments, shared memory, RDMA) accept
// any socket count, so an RPC-args client advertising sockets=0 is
// valid. Shared memory is additionally gated server-side: it only
// works when client and server share a host, which a virtualized
// guest never does (the client enforces the same rule at connect
// time, but the server cannot rely on well-behaved clients).
func (s *Server) MtSetTransfer(method, sockets int32) (int32, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	switch TransferMethod(method) {
	case TransferRPCArgs, TransferRDMA:
		return 0, nil
	case TransferParallelSockets:
		if sockets < 1 {
			return int32(cuda.ErrorInvalidValue), nil
		}
		return 0, nil
	case TransferSharedMem:
		if !s.allowSharedMem() {
			return int32(cuda.ErrorNotSupported), nil
		}
		return 0, nil
	default:
		return int32(cuda.ErrorInvalidValue), nil
	}
}

// allowSharedMem reports whether this server can offer shared-memory
// transfers. The simulated server always shares a host with its
// in-process clients; a deployment fronted by real sockets would
// disable it via DisableSharedMem.
func (s *Server) allowSharedMem() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.noSharedMem
}

// DisableSharedMem makes MtSetTransfer reject TransferSharedMem with
// cudaErrorNotSupported — for servers reachable only over the
// network, where a shared mapping cannot exist.
func (s *Server) DisableSharedMem() {
	s.mu.Lock()
	s.noSharedMem = true
	s.mu.Unlock()
}

// SrvGetEpoch returns the server instance's random boot epoch. A
// reconnecting client compares it with the epoch it saw at connect
// time: a change means the server restarted and every handle and
// device allocation the client held is gone.
func (s *Server) SrvGetEpoch() (uint64, error) {
	s.count(func(st *ServerStats) { st.Calls++ })
	return s.epoch, nil
}

// LatestSnapshot returns the most recent checkpoint of a device, for
// inspection by tools and tests.
func (s *Server) LatestSnapshot(dev int) *gpu.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshots[dev]
}

// SaveCheckpoint serializes the most recent checkpoint of a device to
// w (Cricket's checkpoint files). It fails when no checkpoint exists.
func (s *Server) SaveCheckpoint(dev int, w io.Writer) error {
	s.mu.Lock()
	snap := s.snapshots[dev]
	s.mu.Unlock()
	if snap == nil {
		return fmt.Errorf("cricket: no checkpoint for device %d", dev)
	}
	_, err := snap.WriteTo(w)
	return err
}

// LoadCheckpoint reads a serialized checkpoint and installs it as the
// device's latest, ready for CKP_RESTORE — the restart half of
// checkpoint/restart across server restarts or migrations.
func (s *Server) LoadCheckpoint(dev int, r io.Reader) error {
	if _, err := s.rt.Device(dev); err != nil {
		return err
	}
	snap, err := gpu.ReadSnapshot(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.snapshots[dev] = snap
	s.mu.Unlock()
	return nil
}

// checkpointPath names the persisted checkpoint file for one device.
func checkpointPath(dir string, dev int) string {
	return filepath.Join(dir, fmt.Sprintf("dev%d.ckpt", dev))
}

// writeCheckpointFile persists a snapshot atomically (temp file +
// fsync + rename), so a crash mid-write never corrupts the previous
// checkpoint. Without the fsync the rename could land before the
// data, leaving a complete-looking but empty checkpoint after a
// power failure.
func writeCheckpointFile(dir string, dev int, snap *gpu.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "ckpt-*")
	if err != nil {
		return err
	}
	if _, err := snap.WriteTo(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), checkpointPath(dir, dev))
}

// SetCheckpointDir enables durable checkpoints: every CKP_CHECKPOINT
// writes through to dir, and any checkpoints already present there are
// loaded immediately — so a freshly started server can offer
// CKP_RESTORE of state captured by a previous instance. Loading skips
// files for device ordinals the runtime does not have.
func (s *Server) SetCheckpointDir(dir string) error {
	if dir == "" {
		s.mu.Lock()
		s.ckpDir = ""
		s.mu.Unlock()
		return nil
	}
	// Create the directory before installing it: if MkdirAll fails,
	// persistence stays fully disabled instead of every later
	// checkpoint failing its write-through.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s.mu.Lock()
	s.ckpDir = dir
	s.mu.Unlock()
	n, _, _ := s.rt.GetDeviceCount()
	for dev := 0; dev < n; dev++ {
		f, err := os.Open(checkpointPath(dir, dev))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
		err = s.LoadCheckpoint(dev, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("cricket: loading checkpoint for device %d: %w", dev, err)
		}
	}
	return nil
}
