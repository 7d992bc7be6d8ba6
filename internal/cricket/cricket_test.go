package cricket

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"cricket/internal/cubin"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/netsim"
	"cricket/internal/oncrpc"
	"cricket/internal/rpcl"
)

// harness wires a Cricket client to an in-process server over a pipe.
type harness struct {
	Client *Client
	Server *Server
	Clock  *netsim.Clock
}

func newHarness(t testing.TB, platform guest.Platform, opts Options) *harness {
	t.Helper()
	clock := netsim.NewClock()
	rt := cuda.NewRuntime(clock, gpu.New(gpu.SpecA100))
	srv := NewServer(rt)
	rpcSrv := oncrpc.NewServer()
	srv.Attach(rpcSrv)
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rpcSrv.ServeConn(srvConn)
	}()
	opts.Platform = platform
	opts.Clock = clock
	c, err := Connect(cliConn, opts)
	if err != nil {
		cliConn.Close()
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		srvConn.Close()
		<-done
	})
	return &harness{Client: c, Server: srv, Clock: clock}
}

func builtinFatbin() []byte {
	var fb cubin.FatBinary
	fb.AddImage(cuda.BuiltinImage(80), true)
	return fb.Encode()
}

func TestSpecFileParsesAndMatchesGenerated(t *testing.T) {
	src, err := os.ReadFile("cricket.x")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := rpcl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Programs) != 1 || spec.Programs[0].Number != RpcCdProg {
		t.Fatalf("program number %#x, generated %#x", spec.Programs[0].Number, RpcCdProg)
	}
	procs := spec.Programs[0].Versions[0].Procs
	if len(procs) != 35 {
		t.Fatalf("%d procedures in spec", len(procs))
	}
	// Spot-check generated procedure numbers against the spec.
	byName := map[string]uint32{}
	for _, p := range procs {
		byName[p.Name] = p.Number
	}
	if byName["CUDA_MALLOC"] != ProcCudaMalloc || byName["CU_LAUNCH_KERNEL"] != ProcCuLaunchKernel {
		t.Fatal("generated procedure numbers diverge from cricket.x")
	}
	if byName["BATCH_EXEC"] != ProcBatchExec {
		t.Fatal("BATCH_EXEC procedure number diverges from cricket.x")
	}
	if byName["BATCH_EXEC_READ"] != ProcBatchExecRead {
		t.Fatal("BATCH_EXEC_READ procedure number diverges from cricket.x")
	}
}

func TestPingAndDeviceQueries(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	if err := h.Client.Ping(); err != nil {
		t.Fatal(err)
	}
	n, err := h.Client.GetDeviceCount()
	if err != nil || n != 1 {
		t.Fatalf("count=%d err=%v", n, err)
	}
	prop, err := h.Client.GetDeviceProperties(0)
	if err != nil {
		t.Fatal(err)
	}
	if prop.Name != gpu.SpecA100.Name || prop.Major != 8 {
		t.Fatalf("prop = %+v", prop)
	}
	if _, err := h.Client.GetDeviceProperties(3); !errors.Is(err, cuda.ErrorInvalidDevice) {
		t.Fatalf("bad device: %v", err)
	}
	if err := h.Client.SetDevice(0); err != nil {
		t.Fatal(err)
	}
	dev, err := h.Client.GetDevice()
	if err != nil || dev != 0 {
		t.Fatalf("dev=%d err=%v", dev, err)
	}
}

func TestMallocMemcpyFreeOverRPC(t *testing.T) {
	h := newHarness(t, guest.RustyHermit(), Options{})
	p, err := h.Client.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := h.Client.MemcpyHtoD(p, data); err != nil {
		t.Fatal(err)
	}
	got, err := h.Client.MemcpyDtoH(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch through RPC")
	}
	if err := h.Client.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Client.Free(p); !errors.Is(err, cuda.ErrorInvalidDevicePointer) {
		t.Fatalf("double free: %v", err)
	}
}

func TestInBandErrorsDoNotBreakTransport(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	// Provoke an in-band CUDA error.
	if err := h.Client.MemcpyHtoD(0xdead, []byte{1, 2, 3}); !errors.Is(err, cuda.ErrorInvalidDevicePointer) {
		t.Fatalf("err = %v", err)
	}
	// The connection must still be usable afterwards.
	if err := h.Client.Ping(); err != nil {
		t.Fatalf("transport broken after in-band error: %v", err)
	}
}

func TestModuleLoadAndLaunchThroughCricket(t *testing.T) {
	h := newHarness(t, guest.Unikraft(), Options{})
	c := h.Client

	m, err := c.ModuleLoad(builtinFatbin())
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.ModuleGetFunction(m, cuda.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ModuleGetFunction(m, "missing"); !errors.Is(err, cuda.ErrorNotFound) {
		t.Fatalf("missing kernel: %v", err)
	}

	const n = 256
	a, _ := c.Malloc(n * 4)
	b, _ := c.Malloc(n * 4)
	out, _ := c.Malloc(n * 4)
	buf := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(float32(i)))
	}
	if err := c.MemcpyHtoD(a, buf); err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHtoD(b, buf); err != nil {
		t.Fatal(err)
	}
	args := cuda.NewArgBuffer().Ptr(a).Ptr(b).Ptr(out).I32(n).Bytes()
	if err := c.LaunchKernel(f, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 256, Y: 1, Z: 1}, 0, 0, args); err != nil {
		t.Fatal(err)
	}
	got, err := c.MemcpyDtoH(out, n*4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := math.Float32frombits(binary.LittleEndian.Uint32(got[i*4:]))
		if v != float32(2*i) {
			t.Fatalf("out[%d] = %g", i, v)
		}
	}
	if err := c.ModuleUnload(m); err != nil {
		t.Fatal(err)
	}
}

func TestStreamsAndEventsOverRPC(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	c := h.Client
	s, err := c.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := c.EventCreate()
	e2, _ := c.EventCreate()
	if err := c.EventRecord(e1, s); err != nil {
		t.Fatal(err)
	}
	// Chargeable work between the records so elapsed > 0.
	p, _ := c.Malloc(1 << 20)
	c.MemcpyHtoD(p, make([]byte, 1<<20))
	if err := c.EventRecord(e2, s); err != nil {
		t.Fatal(err)
	}
	ms, err := c.EventElapsed(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 {
		t.Fatalf("elapsed = %g", ms)
	}
	if err := c.EventDestroy(e1); err != nil {
		t.Fatal(err)
	}
	if err := c.EventDestroy(e2); err != nil {
		t.Fatal(err)
	}
	if err := c.StreamSynchronize(s); err != nil {
		t.Fatal(err)
	}
	if err := c.StreamDestroy(s); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRestore(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	c := h.Client
	p, err := c.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHtoD(p, bytes.Repeat([]byte{0x11}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if snap := h.Server.LatestSnapshot(0); snap == nil || snap.Allocations() != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Mutate, then restore.
	if err := c.MemcpyHtoD(p, bytes.Repeat([]byte{0x22}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(); err != nil {
		t.Fatal(err)
	}
	got, err := c.MemcpyDtoH(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0x11 {
			t.Fatalf("restore lost data: %#x", b)
		}
	}
	// Pointers allocated before the checkpoint remain valid; new
	// allocations after restore do not collide.
	q, err := c.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if q == p {
		t.Fatal("allocator handed out a live pointer after restore")
	}
}

func TestRestoreWithoutCheckpoint(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	if err := h.Client.Restore(); !errors.Is(err, cuda.ErrorInvalidValue) {
		t.Fatalf("err = %v", err)
	}
}

func TestStatsCounting(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	c := h.Client
	p, _ := c.Malloc(1000)
	c.MemcpyHtoD(p, make([]byte, 1000))
	c.MemcpyDtoH(p, 500)
	c.Free(p)
	st := c.Stats()
	if st.APICalls != 4 {
		t.Fatalf("APICalls = %d", st.APICalls)
	}
	if st.BytesToDevice != 1000 || st.BytesFromDevice != 500 {
		t.Fatalf("bytes = %d/%d", st.BytesToDevice, st.BytesFromDevice)
	}
	sst := h.Server.Stats()
	if sst.Calls != 4 || sst.BytesToGPU != 1000 || sst.BytesFromGPU != 500 {
		t.Fatalf("server stats = %+v", sst)
	}
	c.ResetStats()
	if c.Stats().APICalls != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestSimulatedClockAdvancesPerCall(t *testing.T) {
	h := newHarness(t, guest.RustyHermit(), Options{})
	t0 := h.Clock.Now()
	if err := h.Client.Ping(); err != nil {
		t.Fatal(err)
	}
	t1 := h.Clock.Now()
	if t1 <= t0 {
		t.Fatal("clock did not advance")
	}
	// A Hermit ping costs tens of microseconds in simulation.
	if d := t1 - t0; d < 10*time.Microsecond || d > 200*time.Microsecond {
		t.Fatalf("hermit ping cost %v", d)
	}
}

func TestPlatformLatencyOrderingEndToEnd(t *testing.T) {
	// The Fig 6 ordering must hold through the full stack, not just
	// the analytic model: run the same call sequence on each platform
	// and compare virtual elapsed time.
	perCall := func(p guest.Platform) time.Duration {
		h := newHarness(t, p, Options{})
		start := h.Clock.Now()
		for i := 0; i < 50; i++ {
			if _, err := h.Client.GetDeviceCount(); err != nil {
				t.Fatal(err)
			}
		}
		return (h.Clock.Now() - start) / 50
	}
	c := perCall(guest.NativeC())
	rust := perCall(guest.NativeRust())
	hermit := perCall(guest.RustyHermit())
	uk := perCall(guest.Unikraft())
	vm := perCall(guest.LinuxVM())
	t.Logf("cudaGetDeviceCount per call: C=%v Rust=%v Hermit=%v Unikraft=%v VM=%v", c, rust, hermit, uk, vm)
	if !(hermit > 2*rust) {
		t.Errorf("Hermit %v not >2x native %v", hermit, rust)
	}
	if !(rust < hermit && hermit < uk && uk < vm) {
		t.Errorf("ordering violated: %v %v %v %v", rust, hermit, uk, vm)
	}
}

func TestTransferMethodGating(t *testing.T) {
	clock := netsim.NewClock()
	rt := cuda.NewRuntime(clock, gpu.New(gpu.SpecA100))
	srv := NewServer(rt)
	rpcSrv := oncrpc.NewServer()
	srv.Attach(rpcSrv)

	// Rust platform may not use parallel sockets (RPC-Lib limitation).
	cliConn, srvConn := net.Pipe()
	go rpcSrv.ServeConn(srvConn)
	_, err := Connect(cliConn, Options{
		Platform: guest.NativeRust(), Clock: clock,
		Transfer: TransferParallelSockets, Sockets: 4,
	})
	if !errors.Is(err, ErrTransferUnsupported) {
		t.Fatalf("rust parallel sockets: %v", err)
	}
	cliConn.Close()
	srvConn.Close()

	// A unikernel may not use shared memory either (virtualized).
	hermitVariant := guest.RustyHermit()
	hermitVariant.AppLang = guest.LangC // even a C app in a unikernel cannot share host memory
	cliConn2, srvConn2 := net.Pipe()
	go rpcSrv.ServeConn(srvConn2)
	_, err = Connect(cliConn2, Options{Platform: hermitVariant, Clock: clock, Transfer: TransferSharedMem})
	if !errors.Is(err, ErrTransferUnsupported) {
		t.Fatalf("unikernel shm: %v", err)
	}
	cliConn2.Close()
	srvConn2.Close()

	// The native C client may use every method.
	for _, m := range []TransferMethod{TransferRPCArgs, TransferParallelSockets, TransferSharedMem, TransferRDMA} {
		cc, sc := net.Pipe()
		go rpcSrv.ServeConn(sc)
		c, err := Connect(cc, Options{Platform: guest.NativeC(), Clock: clock, Transfer: m, Sockets: 8})
		if err != nil {
			t.Fatalf("C %v: %v", m, err)
		}
		c.Close()
		sc.Close()
	}
}

func TestTransferMethodSpeedOrdering(t *testing.T) {
	// Paper §4.2: RPC arguments are the slowest method; parallel
	// sockets are faster; RDMA/shared memory are the fastest because
	// they eliminate the bounce buffer.
	const n = 64 << 20
	cost := func(m TransferMethod, sockets int) time.Duration {
		h := newHarness(t, guest.NativeC(), Options{Transfer: m, Sockets: sockets})
		p, err := h.Client.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		start := h.Clock.Now()
		if err := h.Client.MemcpyHtoD(p, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		return h.Clock.Now() - start
	}
	rpcArgs := cost(TransferRPCArgs, 1)
	parallel := cost(TransferParallelSockets, 8)
	shm := cost(TransferSharedMem, 1)
	rdma := cost(TransferRDMA, 1)
	t.Logf("64 MiB HtoD: rpc-args=%v parallel=%v shm=%v rdma=%v", rpcArgs, parallel, shm, rdma)
	if !(parallel < rpcArgs) {
		t.Errorf("parallel sockets (%v) not faster than rpc args (%v)", parallel, rpcArgs)
	}
	// Direct methods eliminate the staging buffer so the data movement
	// overlaps the PCIe copy; both must clearly beat the buffered
	// paths (paper: "the highest bandwidth is achievable using
	// GPUdirect RDMA ... and shared memory").
	if !(rdma < parallel*9/10 && shm < parallel*9/10) {
		t.Errorf("direct methods not fastest: shm=%v rdma=%v parallel=%v", shm, rdma, parallel)
	}
}

func TestSchedulerPolicies(t *testing.T) {
	s := NewScheduler(PolicyFIFO, 2)
	if err := s.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach("c"); !errors.Is(err, ErrTooManyClients) {
		t.Fatalf("admission: %v", err)
	}
	if err := s.Attach("a"); err == nil {
		t.Fatal("duplicate attach")
	}
	if got := s.PickNext(); got != "a" {
		t.Fatalf("FIFO pick = %q", got)
	}
	// Fair share: b has consumed less GPU time.
	if err := s.Record("a", true, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := s.Record("b", true, 1*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.SetPolicy(PolicyFairShare)
	if got := s.PickNext(); got != "b" {
		t.Fatalf("fair-share pick = %q", got)
	}
	if err := s.Record("nope", false, 0); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("unknown client: %v", err)
	}
	clients := s.Clients()
	if len(clients) != 2 || clients[0].ID != "a" || clients[0].Launches != 1 {
		t.Fatalf("clients = %+v", clients)
	}
	s.Detach("a")
	if got := s.PickNext(); got != "b" {
		t.Fatalf("after detach pick = %q", got)
	}
	s.Detach("b")
	if got := s.PickNext(); got != "" {
		t.Fatalf("empty pick = %q", got)
	}
}

func TestMultipleClientsShareOneGPU(t *testing.T) {
	// Cricket's core value: several clients (unikernels) against one
	// server/GPU, with memory isolation by pointer and a shared
	// allocator.
	clock := netsim.NewClock()
	rt := cuda.NewRuntime(clock, gpu.New(gpu.SpecA100))
	srv := NewServer(rt)
	rpcSrv := oncrpc.NewServer()
	srv.Attach(rpcSrv)

	mkClient := func() *Client {
		cliConn, srvConn := net.Pipe()
		go rpcSrv.ServeConn(srvConn)
		c, err := Connect(cliConn, Options{Platform: guest.RustyHermit(), Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close(); srvConn.Close() })
		return c
	}
	c1 := mkClient()
	c2 := mkClient()
	p1, err := c1.Malloc(128)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c2.Malloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("clients received the same allocation")
	}
	if err := c1.MemcpyHtoD(p1, bytes.Repeat([]byte{1}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := c2.MemcpyHtoD(p2, bytes.Repeat([]byte{2}, 128)); err != nil {
		t.Fatal(err)
	}
	b1, _ := c1.MemcpyDtoH(p1, 128)
	b2, _ := c2.MemcpyDtoH(p2, 128)
	if b1[0] != 1 || b2[0] != 2 {
		t.Fatal("client data mixed up")
	}
	if srv.Stats().Calls < 6 {
		t.Fatalf("server calls = %d", srv.Stats().Calls)
	}
}

func TestClientOverRealTCP(t *testing.T) {
	rt := cuda.NewRuntime(nil, gpu.New(gpu.SpecA100))
	srv := NewServer(rt)
	rpcSrv := oncrpc.NewServer()
	srv.Attach(rpcSrv)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rpcSrv.Serve(l)
	defer rpcSrv.Close()

	c, err := Dial(l.Addr().String(), Options{Platform: guest.NativeRust()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n, err := c.GetDeviceCount()
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	p, err := c.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHtoD(p, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if c.SimNow() != 0 {
		t.Fatal("real-TCP client should not simulate time")
	}
}

func BenchmarkCricketNullCall(b *testing.B) {
	h := newHarness(b, guest.NativeRust(), Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Client.Ping(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCricketMemcpy1MiB(b *testing.B) {
	h := newHarness(b, guest.NativeRust(), Options{})
	p, err := h.Client.Malloc(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Client.MemcpyHtoD(p, data); err != nil {
			b.Fatal(err)
		}
	}
}

// newParallelHarness wires a client with real side-channel data
// connections (in-process pipes).
func newParallelHarness(t testing.TB, sockets int) *harness {
	t.Helper()
	clock := netsim.NewClock()
	rt := cuda.NewRuntime(clock, gpu.New(gpu.SpecA100))
	srv := NewServer(rt)
	rpcSrv := oncrpc.NewServer()
	srv.Attach(rpcSrv)
	cliConn, srvConn := net.Pipe()
	go rpcSrv.ServeConn(srvConn)
	var dataConns []net.Conn
	c, err := Connect(cliConn, Options{
		Platform: guest.NativeC(),
		Clock:    clock,
		Transfer: TransferParallelSockets,
		Sockets:  sockets,
		DataDial: func() (io.ReadWriteCloser, error) {
			dc, ds := net.Pipe()
			dataConns = append(dataConns, ds)
			go srv.ServeDataConn(ds)
			return dc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srvConn.Close()
		for _, dc := range dataConns {
			dc.Close()
		}
	})
	return &harness{Client: c, Server: srv, Clock: clock}
}

func TestParallelSocketDataPath(t *testing.T) {
	h := newParallelHarness(t, 4)
	c := h.Client
	const n = 1 << 20
	p, err := c.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := c.MemcpyHtoD(p, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.MemcpyDtoH(p, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("parallel-socket round trip corrupted data")
	}
	// The payload moved over the data channels, not the RPC stream:
	// server counters include it, and client stats track it.
	st := c.Stats()
	if st.BytesToDevice != n || st.BytesFromDevice != n {
		t.Fatalf("client stats: %+v", st)
	}
	if h.Server.Stats().BytesToGPU < n {
		t.Fatalf("server saw %d bytes", h.Server.Stats().BytesToGPU)
	}
}

func TestParallelSocketUnevenSizes(t *testing.T) {
	h := newParallelHarness(t, 3)
	c := h.Client
	for _, n := range []int{1, 2, 3, 100, 4097, 1<<20 + 13} {
		p, err := c.Malloc(uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i ^ n)
		}
		if err := c.MemcpyHtoD(p, data); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := c.MemcpyDtoH(p, uint64(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("n=%d: mismatch", n)
		}
		if err := c.Free(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParallelSocketBadPointer(t *testing.T) {
	h := newParallelHarness(t, 2)
	if err := h.Client.MemcpyHtoD(0xdead, make([]byte, 4096)); !errors.Is(err, cuda.ErrorInvalidDevicePointer) {
		t.Fatalf("err = %v", err)
	}
	// Channels survive the error.
	p, err := h.Client.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Client.MemcpyHtoD(p, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
}

func TestParallelSocketSimFasterThanRPCArgs(t *testing.T) {
	const n = 32 << 20
	cost := func(h *harness) time.Duration {
		p, err := h.Client.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		start := h.Clock.Now()
		if err := h.Client.MemcpyHtoD(p, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		return h.Clock.Now() - start
	}
	parallel := cost(newParallelHarness(t, 8))
	rpcArgs := cost(newHarness(t, guest.NativeC(), Options{}))
	if parallel >= rpcArgs {
		t.Fatalf("parallel sockets %v not faster than rpc args %v", parallel, rpcArgs)
	}
}

func TestCheckpointPersistence(t *testing.T) {
	// Checkpoint on one server, persist to bytes, load into a brand
	// new server (a restart or migration), restore there.
	h1 := newHarness(t, guest.NativeRust(), Options{})
	p, err := h1.Client.Malloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.Client.MemcpyHtoD(p, bytes.Repeat([]byte{0x77}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := h1.Client.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := h1.Server.SaveCheckpoint(0, &file); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, guest.NativeRust(), Options{})
	if err := h2.Server.LoadCheckpoint(0, bytes.NewReader(file.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := h2.Client.Restore(); err != nil {
		t.Fatal(err)
	}
	// The migrated state is readable at the original device pointer.
	got, err := h2.Client.MemcpyDtoH(p, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0x77 {
			t.Fatalf("migrated byte = %#x", b)
		}
	}
	// Saving without a checkpoint fails.
	h3 := newHarness(t, guest.NativeRust(), Options{})
	if err := h3.Server.SaveCheckpoint(0, &bytes.Buffer{}); err == nil {
		t.Fatal("saved nonexistent checkpoint")
	}
	// Loading garbage fails.
	if err := h2.Server.LoadCheckpoint(0, bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("loaded garbage checkpoint")
	}
	// Loading for a bad device fails.
	if err := h2.Server.LoadCheckpoint(9, bytes.NewReader(file.Bytes())); err == nil {
		t.Fatal("loaded checkpoint for missing device")
	}
}

// TestFullAPISurface drives every remaining forwarded call through
// the client: DtoD copies, memset, memory info, synchronization,
// device reset, and module globals.
func TestFullAPISurface(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	c := h.Client

	free0, total, err := c.MemGetInfo()
	if err != nil || total == 0 || free0 == 0 {
		t.Fatalf("meminfo: %d/%d err=%v", free0, total, err)
	}
	a, err := c.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	free1, _, _ := c.MemGetInfo()
	if free1 >= free0 {
		t.Fatal("allocations did not reduce free memory")
	}
	if err := c.Memset(a, 0x3c, 256); err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyDtoD(b, a, 256); err != nil {
		t.Fatal(err)
	}
	got, err := c.MemcpyDtoH(b, 256)
	if err != nil || got[0] != 0x3c || got[255] != 0x3c {
		t.Fatalf("dtod: %v err=%v", got[:2], err)
	}
	// Error paths.
	if err := c.MemcpyDtoD(0xbad, a, 16); !errors.Is(err, cuda.ErrorInvalidDevicePointer) {
		t.Fatalf("bad dtod: %v", err)
	}
	if err := c.Memset(0xbad, 0, 16); !errors.Is(err, cuda.ErrorInvalidDevicePointer) {
		t.Fatalf("bad memset: %v", err)
	}
	if err := c.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}

	// Module globals through the full stack.
	img := cuda.BuiltinImage(80)
	img.Globals = []cubin.GlobalVar{{Name: "d_LUT", Size: 512}}
	m, err := c.ModuleLoad(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	gp, size, err := c.ModuleGetGlobal(m, "d_LUT")
	if err != nil || size != 512 || gp == 0 {
		t.Fatalf("global: %#x/%d err=%v", uint64(gp), size, err)
	}
	if err := c.Memset(gp, 0xee, 512); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ModuleGetGlobal(m, "missing"); !errors.Is(err, cuda.ErrorNotFound) {
		t.Fatalf("missing global: %v", err)
	}

	// DeviceReset wipes everything.
	if err := c.DeviceReset(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MemcpyDtoH(a, 16); !errors.Is(err, cuda.ErrorInvalidDevicePointer) {
		t.Fatalf("read after reset: %v", err)
	}
	if c.Platform().Name != "Rust" || c.Transfer() != TransferRPCArgs {
		t.Fatal("accessors wrong")
	}
}

// TestMultiDeviceServer drives a Cricket server fronting the paper's
// full GPU node: one A100, two T4s, one P40. Clients switch devices
// and their allocations and launches land on the selected one.
func TestMultiDeviceServer(t *testing.T) {
	clock := netsim.NewClock()
	rt := cuda.NewRuntime(clock,
		gpu.New(gpu.SpecA100), gpu.New(gpu.SpecT4), gpu.New(gpu.SpecT4), gpu.New(gpu.SpecP40))
	srv := NewServer(rt)
	rpcSrv := oncrpc.NewServer()
	srv.Attach(rpcSrv)
	cliConn, srvConn := net.Pipe()
	go rpcSrv.ServeConn(srvConn)
	c, err := Connect(cliConn, Options{Platform: guest.NativeRust(), Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Close(); srvConn.Close() }()

	n, err := c.GetDeviceCount()
	if err != nil || n != 4 {
		t.Fatalf("count=%d err=%v", n, err)
	}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		prop, err := c.GetDeviceProperties(i)
		if err != nil {
			t.Fatal(err)
		}
		names[i] = prop.Name
	}
	if names[0] != gpu.SpecA100.Name || names[1] != gpu.SpecT4.Name || names[3] != gpu.SpecP40.Name {
		t.Fatalf("names = %v", names)
	}

	// Allocate on the P40, verify it lands there.
	if err := c.SetDevice(3); err != nil {
		t.Fatal(err)
	}
	p, err := c.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	d3, _ := rt.Device(3)
	if d3.LiveAllocations() != 1 {
		t.Fatalf("P40 allocations = %d", d3.LiveAllocations())
	}
	d0, _ := rt.Device(0)
	if d0.LiveAllocations() != 0 {
		t.Fatal("allocation leaked to the A100")
	}
	if err := c.MemcpyHtoD(p, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}

	// A module loaded on the P40 launches on the P40 even after the
	// current device changes (handles are bound to their device). The
	// fat binary must carry a code object the sm_61 part can run, the
	// way nvcc emits one entry per requested architecture; the
	// sm_80-only image is correctly rejected first.
	if _, err := c.ModuleLoad(builtinFatbin()); !errors.Is(err, cuda.ErrorInvalidImage) {
		t.Fatalf("sm_80 image on sm_61: %v", err)
	}
	var multiArch cubin.FatBinary
	multiArch.AddImage(cuda.BuiltinImage(80), true)
	multiArch.AddImage(cuda.BuiltinImage(61), true)
	m, err := c.ModuleLoad(multiArch.Encode())
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.ModuleGetFunction(m, cuda.KernelCopy)
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetDevice(0); err != nil {
		t.Fatal(err)
	}
	args := cuda.NewArgBuffer().Ptr(q).Ptr(p).U64(1024).Bytes()
	if err := c.LaunchKernel(f, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 32, Y: 1, Z: 1}, 0, 0, args); err != nil {
		t.Fatal(err)
	}
	launches, _ := d3.Stats()
	if launches != 1 {
		t.Fatalf("P40 launches = %d", launches)
	}
	// A T4-targeted fat binary still loads on sm_75 via arch fallback.
	if err := c.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	var fb cubin.FatBinary
	fb.AddImage(cuda.BuiltinImage(75), true)
	if _, err := c.ModuleLoad(fb.Encode()); err != nil {
		t.Fatal(err)
	}
}

// TestInBandErrorArms exercises the error arms of the result unions:
// OOM mallocs, invalid handles, and failed elapsed queries all travel
// as the union's non-zero discriminant with a void arm.
func TestInBandErrorArms(t *testing.T) {
	clock := netsim.NewClock()
	tiny := gpu.Spec{Name: "tiny", Arch: 80, MemBytes: 1 << 16, MaxThreadsPerBlock: 1024,
		MaxGridDim: 1 << 20, MaxSharedMemPerBlock: 1 << 10, MemBandwidth: 1e9, ClockHz: 1e9, SMs: 1, CoresPerSM: 1}
	rt := cuda.NewRuntime(clock, gpu.New(tiny))
	srv := NewServer(rt)
	rpcSrv := oncrpc.NewServer()
	srv.Attach(rpcSrv)
	cliConn, srvConn := net.Pipe()
	go rpcSrv.ServeConn(srvConn)
	c, err := Connect(cliConn, Options{Platform: guest.NativeRust(), Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { c.Close(); srvConn.Close() }()

	// PtrResult error arm: OOM.
	if _, err := c.Malloc(1 << 30); !errors.Is(err, cuda.ErrorMemoryAllocation) {
		t.Fatalf("oom: %v", err)
	}
	// FloatResult error arm: unrecorded events.
	e1, err := c.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EventElapsed(e1, e2); !errors.Is(err, cuda.ErrorInvalidValue) {
		t.Fatalf("unrecorded elapsed: %v", err)
	}
	// HandleResult error arm: garbage module image.
	if _, err := c.ModuleLoad([]byte("not a cubin")); !errors.Is(err, cuda.ErrorInvalidImage) {
		t.Fatalf("bad image: %v", err)
	}
	// DataResult error arm: wild read.
	if _, err := c.MemcpyDtoH(0xdead, 64); !errors.Is(err, cuda.ErrorInvalidDevicePointer) {
		t.Fatalf("wild dtoh: %v", err)
	}
	// GlobalResult error arm: bad module handle.
	if _, _, err := c.ModuleGetGlobal(12345, "x"); !errors.Is(err, cuda.ErrorInvalidHandle) {
		t.Fatalf("bad module: %v", err)
	}
	// Stream/event handle errors.
	if err := c.StreamDestroy(777); !errors.Is(err, cuda.ErrorInvalidHandle) {
		t.Fatalf("bad stream: %v", err)
	}
	if err := c.EventDestroy(777); !errors.Is(err, cuda.ErrorInvalidHandle) {
		t.Fatalf("bad event: %v", err)
	}
	if err := c.EventRecord(777, 0); !errors.Is(err, cuda.ErrorInvalidHandle) {
		t.Fatalf("bad record: %v", err)
	}
	if err := c.SetDevice(9); !errors.Is(err, cuda.ErrorInvalidDevice) {
		t.Fatalf("bad device: %v", err)
	}
	// Negative ordinals must be rejected in-band too, and must not
	// disturb the current device selection.
	before, err := c.GetDevice()
	if err != nil {
		t.Fatalf("GetDevice: %v", err)
	}
	if err := c.SetDevice(-1); !errors.Is(err, cuda.ErrorInvalidDevice) {
		t.Fatalf("negative device: %v", err)
	}
	if dev, err := c.GetDevice(); err != nil || dev != before {
		t.Fatalf("device after rejected SetDevice = %d, %v (want %d)", dev, err, before)
	}
	if err := c.ModuleUnload(4242); !errors.Is(err, cuda.ErrorInvalidHandle) {
		t.Fatalf("bad unload: %v", err)
	}
	if err := c.LaunchKernel(cuda.Function(9), gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 1, Y: 1, Z: 1}, 0, 0, nil); !errors.Is(err, cuda.ErrorInvalidDeviceFunction) {
		t.Fatalf("bad launch: %v", err)
	}
}

// TestGeneratedCodeIsFresh regenerates the stubs from cricket.x and
// compares with the committed gen_cricket.go, guarding against spec
// drift (run `go generate ./internal/cricket` after editing the spec).
func TestGeneratedCodeIsFresh(t *testing.T) {
	src, err := os.ReadFile("cricket.x")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := rpcl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	want, err := rpcl.Generate(spec, rpcl.GenOptions{Package: "cricket"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("gen_cricket.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gen_cricket.go is stale: run go generate ./internal/cricket")
	}
}
