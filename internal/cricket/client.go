package cricket

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/netsim"
	"cricket/internal/obs"
	"cricket/internal/oncrpc"
)

// Stats are the client-side counters the paper reports per proxy
// application (API call counts and transfer volumes, §4.1).
type Stats struct {
	APICalls        uint64
	KernelLaunches  uint64
	BytesToDevice   uint64
	BytesFromDevice uint64
	// ModuleBytes counts cubin/fatbin image uploads, which the paper
	// does not include in its per-application transfer volumes.
	ModuleBytes uint64
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.APICalls += o.APICalls
	s.KernelLaunches += o.KernelLaunches
	s.BytesToDevice += o.BytesToDevice
	s.BytesFromDevice += o.BytesFromDevice
	s.ModuleBytes += o.ModuleBytes
}

// Options configure a Client.
type Options struct {
	// Platform is the execution environment whose network-path cost
	// model is charged per call. Leave Clock nil to disable
	// simulation accounting (e.g. over a real TCP network).
	Platform guest.Platform
	// Clock is the virtual clock simulated costs accumulate on.
	Clock *netsim.Clock
	// Transfer selects the bulk memory-transfer method. RPC-Lib (and
	// thus every Rust/unikernel client) supports only TransferRPCArgs;
	// requesting another method from a Rust platform fails at Connect.
	Transfer TransferMethod
	// Sockets is the connection count for TransferParallelSockets.
	Sockets int
	// DataDial opens one side-channel data connection to the server
	// for TransferParallelSockets. When nil, the strategy falls back
	// to inline RPC arguments with simulated concurrency costs only.
	DataDial func() (io.ReadWriteCloser, error)
	// ShmOpen maps one shared-memory ring to the server for
	// TransferSharedMem (the server must be serving the ring's
	// consumer side, see Server.ServeShm). When nil, the negotiated
	// method keeps moving bytes inline with direct-path costs only.
	ShmOpen func() (*netsim.ShmRing, error)
	// RdmaOpen connects one RDMA-shaped queue pair to the server for
	// TransferRDMA (see Server.ServeRDMA). When nil, like ShmOpen,
	// the method is modeled over the inline path.
	RdmaOpen func() (*netsim.RdmaEndpoint, error)
	// RequireTransfer makes Connect fail when the server refuses the
	// requested transfer method instead of degrading to RPC
	// arguments. Without it, negotiation is authoritative but
	// forgiving: the client falls back and Transfer() reports the
	// effective method.
	RequireTransfer bool
	// CallTimeout bounds each control-plane call (everything except
	// bulk data movement) with a per-call context deadline, so a
	// Session can distinguish a slow call from a dead transport; zero
	// means no bound.
	CallTimeout time.Duration
	// BulkTimeout is CallTimeout for bulk calls (memcpy, module load),
	// which legitimately take longer than control traffic.
	BulkTimeout time.Duration
	// Batch, BatchBytes and BatchAge configure asynchronous call
	// batching and are honoured only by Session, which owns the one
	// BATCH_EXEC queue (see session.go for the flush and error
	// semantics); Connect rejects a positive Batch rather than silently
	// not batching. Batch, when positive, queues launches, async
	// copies, memsets, event records, and stream-sync markers and ships
	// them as one BATCH_EXEC record of up to Batch entries. Zero — the
	// default — keeps every call a synchronous round trip.
	Batch int
	// BatchBytes flushes the queue early once queued payload bytes
	// exceed it; defaults to 1 MiB when batching is enabled.
	BatchBytes int
	// BatchAge, when positive, flushes a non-empty queue this long
	// after its first entry, bounding how stale queued work can get
	// when the application stops calling. Zero disables the timer,
	// which keeps simulated runs deterministic.
	BatchAge time.Duration
	// CacheTopology caches the answers to the idempotent device
	// topology queries (GetDeviceCount, GetDeviceProperties) so
	// polling loops stop paying a round trip per iteration. Off by
	// default: the Fig 6a microbenchmark measures exactly that round
	// trip. See Client.InvalidateTopology.
	CacheTopology bool
	// Obs, when set, enables client-side observability: every RPC
	// (and every batch entry) mints a 64-bit call id, carries it to
	// the server in the RPC credential, and records a latency sample
	// plus trace spans in this collector. Nil — the default — keeps
	// the call paths free of tracing work.
	Obs *obs.Collector
}

// ErrTransferUnsupported reports a transfer method the client's
// platform cannot use (paper §4.2: unikernels support neither
// InfiniBand nor shared memory nor the multithreaded socket path, and
// RPC-Lib implements only RPC-argument transfers).
var ErrTransferUnsupported = fmt.Errorf("cricket: transfer method not supported on this platform")

// A Client is the application-side virtualization layer: the CUDA API
// implemented by forwarding every call to a Cricket server over ONC
// RPC, one synchronous round trip per call. A Client is safe for
// sequential use; the accounting assumes one outstanding call at a
// time (CUDA applications are synchronous at the API boundary).
type Client struct {
	gen      *RpcCdVersClient
	rpc      *oncrpc.Client
	conn     *netsim.CountingConn
	path     *netsim.Path
	platform guest.Platform
	sim      bool
	transfer TransferMethod
	sockets  int

	callTimeout time.Duration
	bulkTimeout time.Duration

	// obs is Options.Obs; nil disables all tracing work.
	obs *obs.Collector

	// tr moves bulk memcpy payloads; installed by Connect after
	// negotiation (see transport.go).
	tr Transport

	mu    sync.Mutex
	stats Stats

	// Topology cache (Options.CacheTopology), guarded by mu.
	cacheTopo  bool
	devCount   int
	devCountOK bool
	props      map[int]cuda.DeviceProp
}

// Connect builds a client over an established transport.
func Connect(conn io.ReadWriteCloser, opts Options) (*Client, error) {
	if opts.Batch > 0 {
		return nil, errors.New("cricket: Options.Batch is honoured only by Session; use NewSession to batch")
	}
	if opts.Transfer != TransferRPCArgs && opts.Platform.AppLang != guest.LangC {
		return nil, fmt.Errorf("%w: %s requires the C/libtirpc client, platform is %s",
			ErrTransferUnsupported, opts.Transfer, opts.Platform.Name)
	}
	if opts.Transfer == TransferSharedMem && opts.Platform.IsVirtualized() {
		return nil, fmt.Errorf("%w: no host-shared memory from %s", ErrTransferUnsupported, opts.Platform.Name)
	}
	cc := netsim.NewCountingConn(conn)
	rpc := oncrpc.NewClient(cc, RpcCdProg, RpcCdVers)
	c := &Client{
		gen:         NewRpcCdVersClient(rpc),
		rpc:         rpc,
		conn:        cc,
		platform:    opts.Platform,
		transfer:    opts.Transfer,
		sockets:     opts.Sockets,
		callTimeout: opts.CallTimeout,
		bulkTimeout: opts.BulkTimeout,
		obs:         opts.Obs,
	}
	if c.obs != nil {
		rpc.SetTrace(clientTrace(c.obs))
	}
	if c.sockets < 1 {
		c.sockets = 1
	}
	c.cacheTopo = opts.CacheTopology
	if opts.Clock != nil {
		c.path = guest.NewPath(opts.Clock, opts.Platform)
		c.sim = true
	}
	if opts.Transfer != TransferRPCArgs {
		// Close the RPC client on failure, or the connection it owns
		// leaks: Connect never hands the half-built client to the
		// caller.
		ctx, cancel := c.ctxFor(false)
		code, err := c.gen.MtSetTransferContext(ctx, int32(opts.Transfer), int32(c.sockets))
		cancel()
		if err != nil {
			rpc.Close()
			return nil, err
		}
		if code != 0 {
			// A policy refusal (cudaErrorNotSupported, e.g. a server
			// with shared memory disabled) degrades to inline RPC
			// arguments unless the caller demanded the method; the
			// negotiation outcome is authoritative either way, so
			// Transfer() reports what is actually in effect. Any
			// other code is a malformed request and always fails.
			if opts.RequireTransfer || cuda.Error(code) != cuda.ErrorNotSupported {
				rpc.Close()
				if opts.RequireTransfer {
					return nil, fmt.Errorf("%w: server refused %s: %w",
						ErrTransferUnsupported, opts.Transfer, cuda.Error(code))
				}
				return nil, cuda.Error(code)
			}
			c.transfer = TransferRPCArgs
		}
	}
	var err error
	switch {
	case c.transfer == TransferParallelSockets && opts.DataDial != nil:
		st := &socketTransport{c: c, dial: opts.DataDial, sockets: c.sockets, maxFrame: maxDataFrame}
		if err = st.open(); err == nil {
			c.tr = st
		}
	case c.transfer == TransferSharedMem && opts.ShmOpen != nil:
		st := &shmTransport{c: c, open: opts.ShmOpen}
		if err = st.Reopen(); err == nil {
			c.tr = st
		}
	case c.transfer == TransferRDMA && opts.RdmaOpen != nil:
		rt := &rdmaTransport{c: c, open: opts.RdmaOpen}
		if err = rt.Reopen(); err == nil {
			c.tr = rt
		}
	default:
		c.tr = &inlineTransport{c: c, direct: c.transfer == TransferSharedMem || c.transfer == TransferRDMA}
	}
	if err != nil {
		rpc.Close()
		return nil, err
	}
	return c, nil
}

// Dial connects to a Cricket server over TCP. Pass Options without a
// Clock when measuring a real network (it measures itself).
func Dial(addr string, opts Options) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cricket: dial %s: %w", addr, err)
	}
	c, err := Connect(conn, opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Close shuts down the transport and any data channels.
func (c *Client) Close() error {
	if c.tr != nil {
		c.tr.Close()
	}
	return c.rpc.Close()
}

// Stats returns a copy of the client-side counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the counters (between benchmark phases).
func (c *Client) ResetStats() {
	c.mu.Lock()
	c.stats = Stats{}
	c.mu.Unlock()
}

// SimNow returns the virtual time, or zero without simulation.
func (c *Client) SimNow() time.Duration {
	if !c.sim {
		return 0
	}
	return c.path.Clock.Now()
}

// ctxFor returns the context bounding one call: BulkTimeout for bulk
// data movement, CallTimeout for everything else. With no configured
// bound it returns the background context and the call waits for as
// long as the connection lives.
func (c *Client) ctxFor(bulk bool) (context.Context, context.CancelFunc) {
	d := c.callTimeout
	if bulk {
		d = c.bulkTimeout
	}
	if d <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

// account runs one RPC and charges its request/response path costs
// (derived from actual bytes moved on the wire) to the virtual clock.
// conc is the simulated connection parallelism for bulk payloads. The
// mutex guards only counter updates, never the round trip itself, so
// Stats() stays responsive while a call is blocked on the network.
func (c *Client) account(bulk bool, conc int, fn func(ctx context.Context) error) error {
	c.mu.Lock()
	c.stats.APICalls++
	c.mu.Unlock()
	return c.charge(bulk, conc, fn)
}

// charge is account without the API-call count: it runs one RPC and
// bills its wire cost to the virtual clock. BatchExec uses it
// directly because a batch record is one wire message carrying many
// logical calls, which are counted per entry instead.
func (c *Client) charge(bulk bool, conc int, fn func(ctx context.Context) error) error {
	ctx, cancel := c.ctxFor(bulk)
	defer cancel()
	if !c.sim {
		return fn(ctx)
	}
	w0, r0 := c.conn.BytesWritten(), c.conn.BytesRead()
	err := fn(ctx)
	req := int(c.conn.BytesWritten() - w0)
	resp := int(c.conn.BytesRead() - r0)
	c.path.Clock.Advance(c.path.MessageCost(req, true, conc) + c.path.MessageCost(resp, false, conc))
	return err
}

// inband converts an in-band CUDA status code to an error.
func inband(code int32, err error) error {
	if err != nil {
		return err
	}
	if code != 0 {
		return cuda.Error(code)
	}
	return nil
}

// Ping issues the null procedure.
func (c *Client) Ping() error {
	return c.account(false, 1, func(ctx context.Context) error { return c.gen.RpcNullContext(ctx) })
}

// GetDeviceCount implements cudaGetDeviceCount. With CacheTopology a
// repeat query answers from the cache — it still counts as a logical
// API call, but touches no wire.
func (c *Client) GetDeviceCount() (int, error) {
	if c.cacheTopo {
		c.mu.Lock()
		if c.devCountOK {
			c.stats.APICalls++
			n := c.devCount
			c.mu.Unlock()
			return n, nil
		}
		c.mu.Unlock()
	}
	var res IntResult
	err := c.account(false, 1, func(ctx context.Context) (e error) { res, e = c.gen.CudaGetDeviceCountContext(ctx); return })
	if err = inband(res.Err, err); err != nil {
		return 0, err
	}
	if c.cacheTopo {
		c.mu.Lock()
		c.devCount, c.devCountOK = int(res.Value), true
		c.mu.Unlock()
	}
	return int(res.Value), nil
}

// GetDeviceProperties implements cudaGetDeviceProperties; results are
// cached per device under CacheTopology (properties are immutable for
// a server instance).
func (c *Client) GetDeviceProperties(dev int) (cuda.DeviceProp, error) {
	if c.cacheTopo {
		c.mu.Lock()
		if p, ok := c.props[dev]; ok {
			c.stats.APICalls++
			c.mu.Unlock()
			return p, nil
		}
		c.mu.Unlock()
	}
	var res PropResult
	err := c.account(false, 1, func(ctx context.Context) (e error) {
		res, e = c.gen.CudaGetDevicePropertiesContext(ctx, int32(dev))
		return
	})
	if err = inband(res.Err, err); err != nil {
		return cuda.DeviceProp{}, err
	}
	p := res.Prop
	prop := cuda.DeviceProp{
		Name:                p.Name,
		TotalGlobalMem:      p.TotalGlobalMem,
		Major:               p.Major,
		Minor:               p.Minor,
		MultiProcessorCount: p.MultiProcessorCount,
		ClockRateKHz:        p.ClockRateKhz,
		MaxThreadsPerBlock:  p.MaxThreadsPerBlock,
		SharedMemPerBlock:   p.SharedMemPerBlock,
		MemoryBandwidthGBps: p.MemoryBandwidthGbps,
	}
	if c.cacheTopo {
		c.mu.Lock()
		if c.props == nil {
			c.props = make(map[int]cuda.DeviceProp)
		}
		c.props[dev] = prop
		c.mu.Unlock()
	}
	return prop, nil
}

// SetDevice implements cudaSetDevice.
func (c *Client) SetDevice(dev int) error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) { code, e = c.gen.CudaSetDeviceContext(ctx, int32(dev)); return })
	return inband(code, err)
}

// GetDevice implements cudaGetDevice.
func (c *Client) GetDevice() (int, error) {
	var res IntResult
	err := c.account(false, 1, func(ctx context.Context) (e error) { res, e = c.gen.CudaGetDeviceContext(ctx); return })
	if err = inband(res.Err, err); err != nil {
		return 0, err
	}
	return int(res.Value), nil
}

// Malloc implements cudaMalloc.
func (c *Client) Malloc(size uint64) (gpu.Ptr, error) {
	var res PtrResult
	err := c.account(false, 1, func(ctx context.Context) (e error) { res, e = c.gen.CudaMallocContext(ctx, size); return })
	if err = inband(res.Err, err); err != nil {
		return 0, err
	}
	return gpu.Ptr(res.Ptr), nil
}

// Free implements cudaFree.
func (c *Client) Free(p gpu.Ptr) error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) { code, e = c.gen.CudaFreeContext(ctx, uint64(p)); return })
	return inband(code, err)
}

// transferConc returns the simulated concurrency for bulk payloads.
func (c *Client) transferConc() int {
	if c.transfer == TransferParallelSockets {
		return c.sockets
	}
	return 1
}

// MemcpyHtoD implements cudaMemcpy(HostToDevice). Bulk data travels
// over the negotiated transport (see transport.go): inline RPC
// arguments, framed parallel sockets, the shared-memory ring, or the
// RDMA-shaped path.
func (c *Client) MemcpyHtoD(dst gpu.Ptr, data []byte) error {
	return c.tr.Write(dst, data)
}

// MemcpyDtoH implements cudaMemcpy(DeviceToHost), returning a fresh
// buffer of n bytes.
func (c *Client) MemcpyDtoH(src gpu.Ptr, n uint64) ([]byte, error) {
	if ar, ok := c.tr.(allocReader); ok {
		return ar.ReadAlloc(src, n)
	}
	out := make([]byte, n)
	if err := c.tr.Read(src, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MemcpyDtoHInto is MemcpyDtoH into a caller-provided buffer, the
// allocation-free form: with the shared-memory transport the device
// bytes move segment-to-buffer with no heap allocation at all.
func (c *Client) MemcpyDtoHInto(src gpu.Ptr, dst []byte) error {
	return c.tr.Read(src, dst)
}

// countCall bumps the logical API-call counter. Kept closure-free:
// the zero-allocation transports call it per transfer.
func (c *Client) countCall() {
	c.mu.Lock()
	c.stats.APICalls++
	c.mu.Unlock()
}

// addBytes counts transfer volume in the given direction. Callers
// only count bytes the device actually accepted or produced.
func (c *Client) addBytes(toDevice bool, n uint64) {
	c.mu.Lock()
	if toDevice {
		c.stats.BytesToDevice += n
	} else {
		c.stats.BytesFromDevice += n
	}
	c.mu.Unlock()
}

// chargeDirectMove bills the simulated cost of an n-byte direct
// (shared-memory or RDMA) transfer. The server already charged the
// PCIe device copy onto the shared clock; direct methods eliminate
// the staging buffer, so the data-movement phase (host copy or wire)
// OVERLAPS the PCIe phase: total = max(move, pcie). Charge the
// remainder.
func (c *Client) chargeDirectMove(n int) {
	if !c.sim {
		return
	}
	pcie := gpu.PCIeCopyTime(uint64(n))
	var move time.Duration
	switch c.transfer {
	case TransferSharedMem:
		// One cross-process copy at host memcpy speed plus a
		// doorbell round trip.
		move = time.Duration(float64(n)/c.platform.Stack.CopyBps*1e9)*time.Nanosecond + 4*time.Microsecond
	case TransferRDMA:
		// Registered-memory direct placement: wire time plus
		// completion handling, no endpoint byte costs.
		move = c.path.Link.WireTime(n) + 6*time.Microsecond
	}
	if move > pcie {
		c.path.Clock.Advance(move - pcie)
	}
}

// MemcpyDtoD implements cudaMemcpy(DeviceToDevice).
func (c *Client) MemcpyDtoD(dst, src gpu.Ptr, n uint64) error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) {
		code, e = c.gen.CudaMemcpyDtodContext(ctx, uint64(dst), uint64(src), n)
		return
	})
	return inband(code, err)
}

// Memset implements cudaMemset.
func (c *Client) Memset(p gpu.Ptr, value byte, n uint64) error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) {
		code, e = c.gen.CudaMemsetContext(ctx, uint64(p), uint32(value), n)
		return
	})
	return inband(code, err)
}

// MemGetInfo implements cudaMemGetInfo.
func (c *Client) MemGetInfo() (free, total uint64, err error) {
	var res MemInfoResult
	err = c.account(false, 1, func(ctx context.Context) (e error) { res, e = c.gen.CudaMemGetInfoContext(ctx); return })
	if err = inband(res.Err, err); err != nil {
		return 0, 0, err
	}
	return res.Info.FreeMem, res.Info.TotalMem, nil
}

// DeviceSynchronize implements cudaDeviceSynchronize.
func (c *Client) DeviceSynchronize() error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) { code, e = c.gen.CudaDeviceSynchronizeContext(ctx); return })
	return inband(code, err)
}

// DeviceReset implements cudaDeviceReset.
func (c *Client) DeviceReset() error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) { code, e = c.gen.CudaDeviceResetContext(ctx); return })
	return inband(code, err)
}

// StreamCreate implements cudaStreamCreate.
func (c *Client) StreamCreate() (cuda.Stream, error) {
	var res HandleResult
	err := c.account(false, 1, func(ctx context.Context) (e error) { res, e = c.gen.CudaStreamCreateContext(ctx); return })
	if err = inband(res.Err, err); err != nil {
		return 0, err
	}
	return cuda.Stream(res.Handle), nil
}

// StreamDestroy implements cudaStreamDestroy.
func (c *Client) StreamDestroy(s cuda.Stream) error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) { code, e = c.gen.CudaStreamDestroyContext(ctx, uint64(s)); return })
	return inband(code, err)
}

// StreamSynchronize implements cudaStreamSynchronize.
func (c *Client) StreamSynchronize(s cuda.Stream) error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) {
		code, e = c.gen.CudaStreamSynchronizeContext(ctx, uint64(s))
		return
	})
	return inband(code, err)
}

// EventCreate implements cudaEventCreate.
func (c *Client) EventCreate() (cuda.Event, error) {
	var res HandleResult
	err := c.account(false, 1, func(ctx context.Context) (e error) { res, e = c.gen.CudaEventCreateContext(ctx); return })
	if err = inband(res.Err, err); err != nil {
		return 0, err
	}
	return cuda.Event(res.Handle), nil
}

// EventRecord implements cudaEventRecord.
func (c *Client) EventRecord(ev cuda.Event, s cuda.Stream) error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) {
		code, e = c.gen.CudaEventRecordContext(ctx, uint64(ev), uint64(s))
		return
	})
	return inband(code, err)
}

// EventElapsed implements cudaEventElapsedTime (milliseconds).
func (c *Client) EventElapsed(start, end cuda.Event) (float32, error) {
	var res FloatResult
	err := c.account(false, 1, func(ctx context.Context) (e error) {
		res, e = c.gen.CudaEventElapsedContext(ctx, uint64(start), uint64(end))
		return
	})
	if err = inband(res.Err, err); err != nil {
		return 0, err
	}
	return res.Value, nil
}

// EventDestroy implements cudaEventDestroy.
func (c *Client) EventDestroy(ev cuda.Event) error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) { code, e = c.gen.CudaEventDestroyContext(ctx, uint64(ev)); return })
	return inband(code, err)
}

// ModuleLoad ships a cubin/fatbin image to the server (cuModuleLoad).
func (c *Client) ModuleLoad(image []byte) (cuda.Module, error) {
	var res HandleResult
	err := c.account(true, c.transferConc(), func(ctx context.Context) (e error) { res, e = c.gen.CuModuleLoadContext(ctx, MemData(image)); return })
	if err = inband(res.Err, err); err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.stats.ModuleBytes += uint64(len(image))
	c.mu.Unlock()
	return cuda.Module(res.Handle), nil
}

// ModuleUnload implements cuModuleUnload.
func (c *Client) ModuleUnload(m cuda.Module) error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) { code, e = c.gen.CuModuleUnloadContext(ctx, uint64(m)); return })
	return inband(code, err)
}

// ModuleGetFunction implements cuModuleGetFunction.
func (c *Client) ModuleGetFunction(m cuda.Module, name string) (cuda.Function, error) {
	var res HandleResult
	err := c.account(false, 1, func(ctx context.Context) (e error) {
		res, e = c.gen.CuModuleGetFunctionContext(ctx, uint64(m), name)
		return
	})
	if err = inband(res.Err, err); err != nil {
		return 0, err
	}
	return cuda.Function(res.Handle), nil
}

// ModuleGetGlobal implements cuModuleGetGlobal.
func (c *Client) ModuleGetGlobal(m cuda.Module, name string) (gpu.Ptr, uint64, error) {
	var res GlobalResult
	err := c.account(false, 1, func(ctx context.Context) (e error) {
		res, e = c.gen.CuModuleGetGlobalContext(ctx, uint64(m), name)
		return
	})
	if err = inband(res.Err, err); err != nil {
		return 0, 0, err
	}
	return gpu.Ptr(res.Info.Ptr), res.Info.Size, nil
}

// LaunchKernel implements cuLaunchKernel. The client charges its
// language profile's launch bookkeeping (the C <<<...>>> compatibility
// logic the Rust port omits, paper §4.2) before forwarding.
func (c *Client) LaunchKernel(f cuda.Function, grid, block gpu.Dim3, sharedMem uint32, s cuda.Stream, args []byte) error {
	if c.sim && c.platform.LaunchExtraNS > 0 {
		c.path.Clock.Advance(time.Duration(c.platform.LaunchExtraNS) * time.Nanosecond)
	}
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) {
		code, e = c.gen.CuLaunchKernelContext(ctx, LaunchArgs{
			Func:  uint64(f),
			GridX: grid.X, GridY: grid.Y, GridZ: grid.Z,
			BlockX: block.X, BlockY: block.Y, BlockZ: block.Z,
			SharedMem: sharedMem,
			Stream:    uint64(s),
			Params:    args,
		})
		return
	})
	c.mu.Lock()
	c.stats.KernelLaunches++
	c.mu.Unlock()
	return inband(code, err)
}

// Checkpoint asks the server to capture device state.
func (c *Client) Checkpoint() error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) { code, e = c.gen.CkpCheckpointContext(ctx); return })
	return inband(code, err)
}

// Restore asks the server to roll back to the latest checkpoint.
func (c *Client) Restore() error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) { code, e = c.gen.CkpRestoreContext(ctx); return })
	return inband(code, err)
}

// Attach performs the SRV_ATTACH lease handshake: the server grants a
// resource lease scoped to the session nonce, or re-binds an existing
// one when it has seen the nonce within the lease TTL. Info.Fresh
// reports whether the lease is new — a reconnecting client whose
// lease expired finds its handles gone and must replay. A server over
// its client cap sheds the attach in-band (cudaErrorServerOverloaded)
// with an AUTH_RETRY backpressure hint.
func (c *Client) Attach(nonce uint64) (LeaseInfo, error) {
	var r LeaseResult
	err := c.account(false, 1, func(ctx context.Context) (e error) {
		r, e = c.gen.SrvAttachContext(ctx, AttachArgs{Nonce: nonce})
		return
	})
	if err := inband(r.Err, err); err != nil {
		return LeaseInfo{}, err
	}
	return r.Info, nil
}

// Detach releases the client's lease and every server-side resource it
// holds, immediately (SRV_DETACH) — eager reclamation instead of
// waiting out the TTL.
func (c *Client) Detach() error {
	var code int32
	err := c.account(false, 1, func(ctx context.Context) (e error) { code, e = c.gen.SrvDetachContext(ctx); return })
	return inband(code, err)
}

// Epoch returns the server's boot epoch (SRV_GET_EPOCH): a random
// per-instance id that changes when the server restarts. It doubles
// as the fleet health prober's liveness ping — the procedure is never
// shed by admission control, so probing works even against a
// saturated member, and a changed value reveals a restart.
func (c *Client) Epoch() (uint64, error) {
	var epoch uint64
	err := c.account(false, 1, func(ctx context.Context) (e error) { epoch, e = c.gen.SrvGetEpochContext(ctx); return })
	return epoch, err
}

// TakeRetryHint consumes the most recent AUTH_RETRY backpressure hint
// the server stamped on a shed reply; zero when none is pending.
func (c *Client) TakeRetryHint() time.Duration { return c.rpc.TakeRetryHint() }

// Platform returns the client's execution platform.
func (c *Client) Platform() guest.Platform { return c.platform }

// Transfer returns the effective bulk-transfer method: the outcome of
// the Connect negotiation, which may be a degrade from the requested
// one (see Options.RequireTransfer).
func (c *Client) Transfer() TransferMethod { return c.transfer }

// TransportCaps describes the active transport: effective method,
// carrier parallelism, frame/slot/window granularity, zero-copy.
func (c *Client) TransportCaps() TransportCaps { return c.tr.Caps() }
