// Package core is the public façade of the reproduction: what a GPU
// application running in a unikernel links against.
//
// It combines the pieces of the paper's system — a Cricket server in
// front of (simulated) GPU devices, the ONC-RPC forwarding client, a
// platform cost model, and a shared virtual clock — into two types:
//
//   - Cluster: one GPU node running a Cricket server, to which any
//     number of clients connect (Figure 2 of the paper: nodes A–D
//     using GPUs of a dedicated GPU node).
//   - VirtualGPU: one application's remote GPU handle, with
//     lifetime-managed device memory. The paper wraps cudaMalloc and
//     cudaFree in Rust lifetimes so allocations behave like heap
//     allocations and use-after-free/double-free are impossible; the
//     Buffer type enforces the same property dynamically and Close
//     releases everything an application leaked.
package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cricket/internal/cricket"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/netsim"
	"cricket/internal/oncrpc"
)

// Core errors.
var (
	// ErrFreed reports use of a buffer after Free (or a second Free).
	ErrFreed = errors.New("core: buffer already freed")
	// ErrClosed reports use of a VirtualGPU after Close.
	ErrClosed = errors.New("core: virtual GPU closed")
	// ErrSizeMismatch reports an I/O that does not fit the buffer.
	ErrSizeMismatch = errors.New("core: size exceeds buffer")
)

// A Cluster is one simulated GPU node: devices, a CUDA runtime, a
// Cricket server, and an RPC server — everything right of the network
// in the paper's Figure 3. All connected clients share the devices
// and the virtual clock.
type Cluster struct {
	Clock   *netsim.Clock
	Runtime *cuda.Runtime
	Cricket *cricket.Server
	RPC     *oncrpc.Server

	mu     sync.Mutex
	conns  []net.Conn
	rings  []*netsim.ShmRing
	eps    []*netsim.RdmaEndpoint
	nextID int
	closed bool
}

// NewCluster builds a GPU node with the given devices (default: one
// A100, the paper's evaluation configuration).
func NewCluster(specs ...gpu.Spec) *Cluster {
	if len(specs) == 0 {
		specs = []gpu.Spec{gpu.SpecA100}
	}
	clock := netsim.NewClock()
	devs := make([]*gpu.Device, len(specs))
	for i, s := range specs {
		devs[i] = gpu.New(s)
	}
	rt := cuda.NewRuntime(clock, devs...)
	cs := cricket.NewServer(rt)
	rpcSrv := oncrpc.NewServer()
	cs.Attach(rpcSrv)
	return &Cluster{Clock: clock, Runtime: rt, Cricket: cs, RPC: rpcSrv}
}

// Connect attaches a new client running on the given platform and
// returns its VirtualGPU. The connection is an in-process pipe; costs
// are simulated on the cluster clock.
func (cl *Cluster) Connect(platform guest.Platform) (*VirtualGPU, error) {
	return cl.ConnectOpts(platform, cricket.Options{})
}

// ConnectOpts is Connect with explicit Cricket client options
// (transfer method, parallel socket count, timeout). Platform and
// Clock fields are filled in by the cluster. The VirtualGPU forwards
// through a plain cricket.Client, one round trip per call.
func (cl *Cluster) ConnectOpts(platform guest.Platform, opts cricket.Options) (*VirtualGPU, error) {
	return cl.connect(platform, opts, func(opts cricket.Options) (cricket.API, error) {
		conn, err := cl.dial()
		if err != nil {
			return nil, err
		}
		c, err := cricket.Connect(conn, opts)
		if err != nil {
			conn.Close()
			return nil, err
		}
		return c, nil
	})
}

// ConnectSession is ConnectOpts over a cricket.Session, which honours
// Options.Batch: asynchronous calls queue and ship as BATCH_EXEC
// records. The in-process pipe breaks only when the cluster closes, so
// the session gets one reconnect attempt and fails fast, no backoff.
func (cl *Cluster) ConnectSession(platform guest.Platform, opts cricket.Options) (*VirtualGPU, error) {
	return cl.connect(platform, opts, func(opts cricket.Options) (cricket.API, error) {
		return cricket.NewSession(cricket.SessionOptions{Options: opts, Redial: cl.dial, MaxAttempts: 1})
	})
}

// dial opens one in-process pipe to the cluster's RPC server, which
// tracks the connection while serving it and closes it in Close.
func (cl *Cluster) dial() (io.ReadWriteCloser, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil, ErrClosed
	}
	cliConn, srvConn := net.Pipe()
	go func() {
		cl.RPC.ServeConn(srvConn)
		srvConn.Close() // also when the server closed before tracking it
	}()
	return cliConn, nil
}

// connect fills in the cluster-owned options, admits the client to the
// scheduler, and wraps what open returns.
func (cl *Cluster) connect(platform guest.Platform, opts cricket.Options, open func(cricket.Options) (cricket.API, error)) (*VirtualGPU, error) {
	cl.mu.Lock()
	cl.nextID++
	id := fmt.Sprintf("%s-%d", platform.Name, cl.nextID)
	cl.mu.Unlock()

	opts.Platform = platform
	opts.Clock = cl.Clock
	if opts.Transfer == cricket.TransferParallelSockets && opts.DataDial == nil {
		// In-process side-channel data connections for the parallel
		// transfer path.
		opts.DataDial = func() (io.ReadWriteCloser, error) {
			dc, ds := net.Pipe()
			go func() {
				cl.Cricket.ServeDataConn(ds)
				ds.Close()
			}()
			cl.mu.Lock()
			cl.conns = append(cl.conns, ds)
			cl.mu.Unlock()
			return dc, nil
		}
	}
	if opts.Transfer == cricket.TransferSharedMem && opts.ShmOpen == nil {
		// In-process shared-memory ring: the server consumes device
		// copies straight from the segment (zero-copy bulk path).
		opts.ShmOpen = func() (*netsim.ShmRing, error) {
			ring := netsim.NewShmRing(32, 512<<10)
			go cl.Cricket.ServeShm(ring)
			cl.mu.Lock()
			cl.rings = append(cl.rings, ring)
			cl.mu.Unlock()
			return ring, nil
		}
	}
	if opts.Transfer == cricket.TransferRDMA && opts.RdmaOpen == nil {
		// In-process RDMA-shaped queue pair with a 4 MiB server
		// staging window.
		opts.RdmaOpen = func() (*netsim.RdmaEndpoint, error) {
			cep, sep := netsim.NewRdmaPair(16)
			go cl.Cricket.ServeRDMA(sep, make([]byte, 4<<20))
			cl.mu.Lock()
			cl.eps = append(cl.eps, cep)
			cl.mu.Unlock()
			return cep, nil
		}
	}
	// Admitted before opening so a session's lease slot, attached by
	// the server during the handshake, arrives after its client's.
	if err := cl.Cricket.Scheduler().Attach(id); err != nil {
		return nil, err
	}
	api, err := open(opts)
	if err != nil {
		cl.Cricket.Scheduler().Detach(id)
		return nil, err
	}
	return &VirtualGPU{
		cluster:  cl,
		api:      api,
		platform: platform,
		id:       id,
		buffers:  make(map[gpu.Ptr]*Buffer),
		modules:  make(map[cuda.Module]*Module),
	}, nil
}

// Close shuts the cluster down, severing every client.
func (cl *Cluster) Close() {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return
	}
	cl.closed = true
	conns := cl.conns
	rings, eps := cl.rings, cl.eps
	cl.conns, cl.rings, cl.eps = nil, nil, nil
	cl.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	for _, r := range rings {
		r.Close()
	}
	for _, ep := range eps {
		ep.Close()
	}
	cl.RPC.Close()
}

// SetTimingOnly switches every device of the cluster between full
// functional execution and timing-only kernel launches (see
// gpu.Device.SetTimingOnly). A simulation-harness control: benchmark
// drivers verify numerics on a few full iterations and replay the
// rest for timing.
func (cl *Cluster) SetTimingOnly(on bool) {
	for i := 0; ; i++ {
		d, err := cl.Runtime.Device(i)
		if err != nil {
			return
		}
		d.SetTimingOnly(on)
	}
}

// A VirtualGPU is one application's handle on a remote GPU: the full
// forwarded CUDA API plus lifetime-managed memory.
type VirtualGPU struct {
	cluster  *Cluster
	api      cricket.API
	platform guest.Platform
	id       string

	mu      sync.Mutex
	buffers map[gpu.Ptr]*Buffer
	modules map[cuda.Module]*Module
	closed  bool
}

// ID returns the cluster-assigned client identity.
func (v *VirtualGPU) ID() string { return v.id }

// Raw exposes the underlying cricket.Client (or the cricket.Session of
// ConnectSession) for API calls the façade does not wrap.
func (v *VirtualGPU) Raw() cricket.API { return v.api }

// Platform returns the client's execution platform.
func (v *VirtualGPU) Platform() guest.Platform { return v.platform }

// Now returns the simulated time observed by this client.
func (v *VirtualGPU) Now() time.Duration { return v.cluster.Clock.Now() }

// Cluster returns the cluster this client is attached to.
func (v *VirtualGPU) Cluster() *Cluster { return v.cluster }

// ChargeHost advances the simulated clock by a host-side compute cost
// (data initialization, result verification) that happens on the
// client node outside any CUDA call.
func (v *VirtualGPU) ChargeHost(d time.Duration) {
	if d > 0 {
		v.cluster.Clock.Advance(d)
	}
}

// Stats returns the client's call/byte counters.
func (v *VirtualGPU) Stats() cricket.Stats { return v.api.Stats() }

func (v *VirtualGPU) checkOpen() error {
	if v.closed {
		return ErrClosed
	}
	return nil
}

// DeviceCount forwards cudaGetDeviceCount.
func (v *VirtualGPU) DeviceCount() (int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return 0, err
	}
	return v.api.GetDeviceCount()
}

// DeviceProperties forwards cudaGetDeviceProperties.
func (v *VirtualGPU) DeviceProperties(dev int) (cuda.DeviceProp, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return cuda.DeviceProp{}, err
	}
	return v.api.GetDeviceProperties(dev)
}

// Alloc allocates lifetime-managed device memory.
func (v *VirtualGPU) Alloc(size uint64) (*Buffer, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return nil, err
	}
	p, err := v.api.Malloc(size)
	if err != nil {
		return nil, err
	}
	b := &Buffer{vg: v, ptr: p, size: size}
	v.buffers[p] = b
	return b, nil
}

// Checkpoint forwards a server-side checkpoint request.
func (v *VirtualGPU) Checkpoint() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return err
	}
	return v.api.Checkpoint()
}

// Restore forwards a server-side restore request.
func (v *VirtualGPU) Restore() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return err
	}
	return v.api.Restore()
}

// Close frees every live buffer, unloads modules, detaches from the
// scheduler, and closes the connection. It is the scope-exit of the
// Rust lifetime model: nothing leaks even if the application forgot
// its frees.
func (v *VirtualGPU) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil
	}
	v.closed = true
	var firstErr error
	for p, b := range v.buffers {
		b.freed = true
		if err := v.api.Free(p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	v.buffers = nil
	for m := range v.modules {
		if err := v.api.ModuleUnload(m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	v.modules = nil
	v.cluster.Cricket.Scheduler().Detach(v.id)
	if err := v.api.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// LiveBuffers reports the number of unfreed allocations.
func (v *VirtualGPU) LiveBuffers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.buffers)
}

// A Buffer is a lifetime-managed device allocation. All methods
// return ErrFreed after Free; Free is idempotent in effect but
// reports the double free, matching the paper's guarantee that the
// CUDA allocation API cannot be misused.
type Buffer struct {
	vg    *VirtualGPU
	ptr   gpu.Ptr
	size  uint64
	freed bool
}

// Ptr returns the device pointer for use in kernel arguments. It
// returns 0 once freed so stale pointers fault on the device rather
// than aliasing a recycled allocation.
func (b *Buffer) Ptr() gpu.Ptr {
	b.vg.mu.Lock()
	defer b.vg.mu.Unlock()
	if b.freed {
		return 0
	}
	return b.ptr
}

// Size returns the allocation size.
func (b *Buffer) Size() uint64 { return b.size }

// Write uploads host bytes at an offset into the buffer.
func (b *Buffer) Write(data []byte) error { return b.WriteAt(data, 0) }

// WriteAt uploads host bytes at a byte offset.
func (b *Buffer) WriteAt(data []byte, off uint64) error {
	b.vg.mu.Lock()
	defer b.vg.mu.Unlock()
	if b.freed {
		return ErrFreed
	}
	if err := b.vg.checkOpen(); err != nil {
		return err
	}
	if off+uint64(len(data)) > b.size {
		return fmt.Errorf("%w: write of %d at %d into %d", ErrSizeMismatch, len(data), off, b.size)
	}
	return b.vg.api.MemcpyHtoD(b.ptr+gpu.Ptr(off), data)
}

// Read downloads the whole buffer.
func (b *Buffer) Read() ([]byte, error) { return b.ReadAt(0, b.size) }

// ReadAt downloads n bytes from a byte offset.
func (b *Buffer) ReadAt(off, n uint64) ([]byte, error) {
	b.vg.mu.Lock()
	defer b.vg.mu.Unlock()
	if b.freed {
		return nil, ErrFreed
	}
	if err := b.vg.checkOpen(); err != nil {
		return nil, err
	}
	if off+n > b.size {
		return nil, fmt.Errorf("%w: read of %d at %d from %d", ErrSizeMismatch, n, off, b.size)
	}
	return b.vg.api.MemcpyDtoH(b.ptr+gpu.Ptr(off), n)
}

// Memset fills the buffer with a byte value.
func (b *Buffer) Memset(value byte) error {
	b.vg.mu.Lock()
	defer b.vg.mu.Unlock()
	if b.freed {
		return ErrFreed
	}
	if err := b.vg.checkOpen(); err != nil {
		return err
	}
	return b.vg.api.Memset(b.ptr, value, b.size)
}

// Free releases the allocation. A second Free returns ErrFreed
// without touching the device: the double free is caught locally, as
// the Rust wrapper catches it at compile time.
func (b *Buffer) Free() error {
	b.vg.mu.Lock()
	defer b.vg.mu.Unlock()
	if b.freed {
		return ErrFreed
	}
	b.freed = true
	delete(b.vg.buffers, b.ptr)
	if b.vg.closed {
		return nil // connection gone; server already reclaimed
	}
	return b.vg.api.Free(b.ptr)
}

// A Module is a loaded kernel module with its client-side metadata.
type Module struct {
	vg     *VirtualGPU
	handle cuda.Module
	funcs  map[string]cuda.Function
}

// LoadModule ships a cubin/fatbin image to the server and returns a
// handle for function lookup.
func (v *VirtualGPU) LoadModule(image []byte) (*Module, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return nil, err
	}
	h, err := v.api.ModuleLoad(image)
	if err != nil {
		return nil, err
	}
	m := &Module{vg: v, handle: h, funcs: make(map[string]cuda.Function)}
	v.modules[h] = m
	return m, nil
}

// Unload releases the module server-side and stops tracking it.
func (m *Module) Unload() error {
	m.vg.mu.Lock()
	defer m.vg.mu.Unlock()
	if err := m.vg.checkOpen(); err != nil {
		return err
	}
	delete(m.vg.modules, m.handle)
	return m.vg.api.ModuleUnload(m.handle)
}

// Function resolves (and caches) a kernel by name.
func (m *Module) Function(name string) (cuda.Function, error) {
	m.vg.mu.Lock()
	defer m.vg.mu.Unlock()
	if err := m.vg.checkOpen(); err != nil {
		return 0, err
	}
	if f, ok := m.funcs[name]; ok {
		return f, nil
	}
	f, err := m.vg.api.ModuleGetFunction(m.handle, name)
	if err != nil {
		return 0, err
	}
	m.funcs[name] = f
	return f, nil
}

// Launch launches a kernel function.
func (v *VirtualGPU) Launch(f cuda.Function, grid, block gpu.Dim3, sharedMem uint32, args []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return err
	}
	err := v.api.LaunchKernel(f, grid, block, sharedMem, 0, args)
	v.cluster.Cricket.Scheduler().Record(v.id, true, 0)
	return err
}

// Synchronize forwards cudaDeviceSynchronize.
func (v *VirtualGPU) Synchronize() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.checkOpen(); err != nil {
		return err
	}
	return v.api.DeviceSynchronize()
}
