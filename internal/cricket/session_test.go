package cricket

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"cricket/internal/cubin"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/netsim"
	"cricket/internal/oncrpc"
)

// sessEnv is a restartable in-process Cricket server: Redial connects
// to the current instance, kill severs every connection (optionally
// taking the instance down), restart boots a fresh instance with a new
// epoch — the session-level equivalent of killing and restarting the
// server process.
type sessEnv struct {
	t      *testing.T
	ckpDir string
	ndev   int // simulated GPU count (0 = one)

	mu     sync.Mutex
	rpcSrv *oncrpc.Server
	srv    *Server
	rt     *cuda.Runtime
	conns  []net.Conn
}

func newSessEnv(t *testing.T, ckpDir string) *sessEnv {
	e := &sessEnv{t: t, ckpDir: ckpDir}
	e.boot()
	t.Cleanup(func() { e.kill(true) })
	return e
}

// newSessEnvMulti is newSessEnv with ndev simulated GPUs, for
// multi-device workloads.
func newSessEnvMulti(t *testing.T, ckpDir string, ndev int) *sessEnv {
	e := &sessEnv{t: t, ckpDir: ckpDir, ndev: ndev}
	e.boot()
	t.Cleanup(func() { e.kill(true) })
	return e
}

func (e *sessEnv) boot() {
	n := e.ndev
	if n <= 0 {
		n = 1
	}
	devs := make([]*gpu.Device, n)
	for i := range devs {
		devs[i] = gpu.New(gpu.SpecA100)
	}
	rt := cuda.NewRuntime(nil, devs...)
	srv := NewServer(rt)
	if e.ckpDir != "" {
		if err := srv.SetCheckpointDir(e.ckpDir); err != nil {
			e.t.Fatalf("SetCheckpointDir: %v", err)
		}
	}
	rpcSrv := oncrpc.NewServer()
	srv.Attach(rpcSrv)
	e.mu.Lock()
	e.rpcSrv, e.srv, e.rt = rpcSrv, srv, rt
	e.mu.Unlock()
}

func (e *sessEnv) redial() (io.ReadWriteCloser, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rpcSrv == nil {
		return nil, errors.New("sessEnv: server down")
	}
	cli, srvConn := net.Pipe()
	e.conns = append(e.conns, srvConn)
	go e.rpcSrv.ServeConn(srvConn)
	return cli, nil
}

// kill severs every live connection; with down=true the instance also
// stops accepting new ones until restart.
func (e *sessEnv) kill(down bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	if down {
		e.rpcSrv = nil
	}
}

// restart replaces the server with a fresh instance (new epoch, empty
// runtime), as after a process restart.
func (e *sessEnv) restart() {
	e.kill(true)
	e.boot()
}

func (e *sessEnv) server() *Server {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srv
}

func newTestSession(t *testing.T, e *sessEnv) *Session {
	t.Helper()
	s, err := NewSession(SessionOptions{
		Options: Options{Platform: guest.NativeRust()},
		Redial:  e.redial,
		Seed:    1,
		Sleep:   func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSessionSurvivesConnectionDrop(t *testing.T) {
	e := newSessEnv(t, "")
	s := newTestSession(t, e)

	p, err := s.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, 64)
	if err := s.MemcpyHtoD(p, want); err != nil {
		t.Fatal(err)
	}

	// Sever the connection but keep the server instance alive.
	e.kill(false)

	got, err := s.MemcpyDtoH(p, 64)
	if err != nil {
		t.Fatalf("read after connection drop: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("server-side memory changed across a pure reconnect")
	}
	st := s.SessionStats()
	if st.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", st.Reconnects)
	}
	if st.Replays != 0 {
		t.Fatalf("Replays = %d, want 0: same epoch means no replay", st.Replays)
	}
}

func TestSessionReplaysHandlesAfterServerRestart(t *testing.T) {
	e := newSessEnv(t, "")
	s := newTestSession(t, e)

	m, err := s.ModuleLoad(builtinFatbin())
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.ModuleGetFunction(m, cuda.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	a, _ := s.Malloc(n * 4)
	b, _ := s.Malloc(n * 4)
	out, _ := s.Malloc(n * 4)

	// Full restart: new epoch, empty handle tables, empty memory.
	e.restart()

	// Old virtual handles must keep working; contents must be
	// re-uploadable and the kernel launchable.
	buf := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(float32(i)))
	}
	if err := s.MemcpyHtoD(a, buf); err != nil {
		t.Fatalf("upload after restart: %v", err)
	}
	if err := s.MemcpyHtoD(b, buf); err != nil {
		t.Fatal(err)
	}
	args := cuda.NewArgBuffer().Ptr(a).Ptr(b).Ptr(out).I32(n).Bytes()
	if err := s.LaunchKernel(f, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: n, Y: 1, Z: 1}, 0, 0, args); err != nil {
		t.Fatalf("launch after restart: %v", err)
	}
	got, err := s.MemcpyDtoH(out, n*4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := math.Float32frombits(binary.LittleEndian.Uint32(got[i*4:]))
		if v != float32(2*i) {
			t.Fatalf("out[%d] = %g after replay", i, v)
		}
	}
	st := s.SessionStats()
	if st.Replays != 1 {
		t.Fatalf("Replays = %d, want 1", st.Replays)
	}
	if st.Restores != 0 {
		t.Fatalf("Restores = %d without a checkpoint", st.Restores)
	}
}

func TestSessionCheckpointRecoversContentsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	e := newSessEnv(t, dir)
	s := newTestSession(t, e)

	p, err := s.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 256)
	for i := range want {
		want[i] = byte(i * 31)
	}
	if err := s.MemcpyHtoD(p, want); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	// The restarted instance loads the persisted checkpoint from dir;
	// the session's replay restores it and migrates contents.
	e.restart()

	got, err := s.MemcpyDtoH(p, 256)
	if err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("checkpointed contents did not survive the server restart")
	}
	st := s.SessionStats()
	if st.Replays != 1 || st.Restores != 1 {
		t.Fatalf("stats = %+v, want 1 replay with 1 restore", st)
	}
}

// matmulWorkload runs one small matrixMul through any client with the
// session's CUDA surface and returns the raw result bytes.
func matmulWorkload(t *testing.T, s *Session, betweenUploadAndLaunch func()) []byte {
	t.Helper()
	const dim = 32 // one 32x32 tile
	m, err := s.ModuleLoad(builtinFatbin())
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.ModuleGetFunction(m, cuda.KernelMatrixMul)
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(dim * dim * 4)
	dA, _ := s.Malloc(size)
	dB, _ := s.Malloc(size)
	dC, _ := s.Malloc(size)
	host := make([]byte, size)
	for i := 0; i < dim*dim; i++ {
		binary.LittleEndian.PutUint32(host[i*4:], math.Float32bits(float32(i%7)+0.5))
	}
	if err := s.MemcpyHtoD(dA, host); err != nil {
		t.Fatal(err)
	}
	if err := s.MemcpyHtoD(dB, host); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if betweenUploadAndLaunch != nil {
		betweenUploadAndLaunch()
	}
	args := cuda.NewArgBuffer().Ptr(dC).Ptr(dA).Ptr(dB).I32(dim).I32(dim).Bytes()
	grid := gpu.Dim3{X: 1, Y: 1, Z: 1}
	block := gpu.Dim3{X: 32, Y: 32, Z: 1}
	if err := s.LaunchKernel(f, grid, block, 0, 0, args); err != nil {
		t.Fatalf("launch: %v", err)
	}
	if err := s.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	out, err := s.MemcpyDtoH(dC, size)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSessionMatrixMulBitIdenticalAcrossServerRestart(t *testing.T) {
	// Fault-free baseline.
	e1 := newSessEnv(t, t.TempDir())
	s1 := newTestSession(t, e1)
	want := matmulWorkload(t, s1, nil)

	// Same workload with the server killed and restarted between data
	// upload and kernel launch.
	e2 := newSessEnv(t, t.TempDir())
	s2 := newTestSession(t, e2)
	got := matmulWorkload(t, s2, e2.restart)

	if !bytes.Equal(got, want) {
		t.Fatal("matrixMul result differs from fault-free run after mid-workload server restart")
	}
	st := s2.SessionStats()
	if st.Reconnects < 1 || st.Replays < 1 || st.Restores < 1 {
		t.Fatalf("recovery not observable in stats: %+v", st)
	}
	if st.RecoveryTime <= 0 {
		t.Fatalf("RecoveryTime = %v, want > 0", st.RecoveryTime)
	}
}

func TestSessionGivesUpAfterAttemptBudget(t *testing.T) {
	e := newSessEnv(t, "")
	s := newTestSession(t, e)
	e.kill(true) // permanently down: no restart

	err := s.Ping()
	if !errors.Is(err, ErrGiveUp) {
		t.Fatalf("err = %v, want ErrGiveUp", err)
	}
	st := s.SessionStats()
	// 1 initial dial + MaxAttempts (default 8) failed redials.
	if st.DialAttempts != 9 {
		t.Fatalf("DialAttempts = %d, want 9", st.DialAttempts)
	}
	if st.Reconnects != 0 {
		t.Fatalf("Reconnects = %d after total failure", st.Reconnects)
	}
}

// TestSessionBackoffProperty checks, across random configurations,
// that a session reconnecting against a dead server never exceeds its
// attempt budget and never sleeps longer than BackoffMax.
func TestSessionBackoffProperty(t *testing.T) {
	prop := func(seed int64, attempts8 uint8, baseMs, maxMs uint16) bool {
		maxAttempts := int(attempts8%16) + 1
		base := time.Duration(int(baseMs%500)+1) * time.Millisecond
		max := base + time.Duration(maxMs)*time.Millisecond

		var mu sync.Mutex
		var delays []time.Duration
		dials := 0
		s := &Session{
			opts: SessionOptions{
				Redial: func() (io.ReadWriteCloser, error) {
					mu.Lock()
					dials++
					mu.Unlock()
					return nil, errors.New("down")
				},
				MaxAttempts: maxAttempts,
				BackoffBase: base,
				BackoffMax:  max,
				Sleep: func(d time.Duration) {
					mu.Lock()
					delays = append(delays, d)
					mu.Unlock()
				},
			},
		}
		s.opts = s.opts.withDefaults()
		s.rng = rand.New(rand.NewSource(seed))

		err := s.recover()
		if !errors.Is(err, ErrGiveUp) {
			return false
		}
		if dials != maxAttempts {
			return false
		}
		for _, d := range delays {
			if d > max || d <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectClosesClientWhenTransferSetupFails(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		// A server with no Cricket program: MT_SET_TRANSFER is
		// rejected at the RPC layer and Connect must fail — without
		// leaking the connection or a goroutine serving it.
		cliConn, srvConn := net.Pipe()
		rpcSrv := oncrpc.NewServer()
		go rpcSrv.ServeConn(srvConn)
		_, err := Connect(cliConn, Options{
			Platform: guest.NativeC(),
			Transfer: TransferParallelSockets,
			Sockets:  2,
		})
		if err == nil {
			t.Fatal("Connect succeeded against a program-less server")
		}
		srvConn.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after failed Connects", before, runtime.NumGoroutine())
}

func TestConnectClosesClientOnInBandTransferRejection(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		rt := cuda.NewRuntime(nil, gpu.New(gpu.SpecA100))
		srv := NewServer(rt)
		rpcSrv := oncrpc.NewServer()
		srv.Attach(rpcSrv)
		cliConn, srvConn := net.Pipe()
		go rpcSrv.ServeConn(srvConn)
		// Unknown transfer method: the server answers with an in-band
		// error and Connect must fail and close the client.
		_, err := Connect(cliConn, Options{
			Platform: guest.NativeC(),
			Transfer: TransferMethod(99),
		})
		if !errors.Is(err, cuda.ErrorInvalidValue) {
			t.Fatalf("err = %v, want in-band invalid value", err)
		}
		srvConn.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after failed Connects", before, runtime.NumGoroutine())
}

func TestStatsDoesNotBlockDuringInFlightCall(t *testing.T) {
	// A pipe with nobody reading the far end: the call blocks inside
	// the transport write. Stats must still return promptly, because
	// the client mutex only guards counters, not round trips.
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	c, err := Connect(cliConn, Options{Platform: guest.NativeRust()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	go c.Ping() // blocks forever in send

	time.Sleep(50 * time.Millisecond) // let Ping reach the write
	done := make(chan Stats, 1)
	go func() { done <- c.Stats() }()
	select {
	case st := <-done:
		if st.APICalls != 1 {
			t.Fatalf("APICalls = %d, want 1 (in-flight call counted)", st.APICalls)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stats() blocked behind an in-flight RPC")
	}
}

func TestTransferCountersOnlyCountSuccess(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	c := h.Client

	// Failed upload: invalid device pointer.
	if err := c.MemcpyHtoD(0xdead, make([]byte, 1024)); err == nil {
		t.Fatal("copy to bogus pointer succeeded")
	}
	if st := c.Stats(); st.BytesToDevice != 0 {
		t.Fatalf("BytesToDevice = %d after failed copy", st.BytesToDevice)
	}
	if st := h.Server.Stats(); st.BytesToGPU != 0 {
		t.Fatalf("server BytesToGPU = %d after failed copy", st.BytesToGPU)
	}
	// Failed download.
	if _, err := c.MemcpyDtoH(0xdead, 1024); err == nil {
		t.Fatal("copy from bogus pointer succeeded")
	}
	if st := c.Stats(); st.BytesFromDevice != 0 {
		t.Fatalf("BytesFromDevice = %d after failed copy", st.BytesFromDevice)
	}
	if st := h.Server.Stats(); st.BytesFromGPU != 0 {
		t.Fatalf("server BytesFromGPU = %d after failed copy", st.BytesFromGPU)
	}
	// Failed module load: corrupt image.
	if _, err := c.ModuleLoad([]byte("not a cubin")); err == nil {
		t.Fatal("bogus module loaded")
	}
	if st := c.Stats(); st.ModuleBytes != 0 {
		t.Fatalf("ModuleBytes = %d after failed load", st.ModuleBytes)
	}

	// Successful copies still count.
	p, err := c.Malloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHtoD(p, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.BytesToDevice != 512 {
		t.Fatalf("BytesToDevice = %d, want 512", st.BytesToDevice)
	}
	if st := h.Server.Stats(); st.BytesToGPU != 512 {
		t.Fatalf("server BytesToGPU = %d, want 512", st.BytesToGPU)
	}
}

func TestMtSetTransferRejectsNonPositiveSockets(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	code, err := h.Server.MtSetTransfer(int32(TransferParallelSockets), 0)
	if err != nil || cuda.Error(code) != cuda.ErrorInvalidValue {
		t.Fatalf("sockets=0: code=%d err=%v, want in-band invalid value", code, err)
	}
	code, err = h.Server.MtSetTransfer(int32(TransferParallelSockets), -3)
	if err != nil || cuda.Error(code) != cuda.ErrorInvalidValue {
		t.Fatalf("sockets=-3: code=%d err=%v", code, err)
	}
	code, err = h.Server.MtSetTransfer(int32(TransferParallelSockets), 4)
	if err != nil || code != 0 {
		t.Fatalf("sockets=4: code=%d err=%v, want success", code, err)
	}
}

func TestCheckpointPropagatesSnapshotFailure(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	c := h.Client
	p, err := c.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHtoD(p, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	d, err := h.Server.Runtime().Device(0)
	if err != nil {
		t.Fatal(err)
	}
	d.SetSnapshotBudget(16) // far below the 4 KiB live allocation

	if err := c.Checkpoint(); !errors.Is(err, cuda.ErrorMemoryAllocation) {
		t.Fatalf("Checkpoint = %v, want in-band memory allocation error", err)
	}
	if h.Server.LatestSnapshot(0) != nil {
		t.Fatal("failed checkpoint installed a snapshot")
	}
	if st := h.Server.Stats(); st.Checkpoints != 0 {
		t.Fatalf("Checkpoints = %d after failure", st.Checkpoints)
	}

	d.SetSnapshotBudget(0)
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint without budget: %v", err)
	}
	if h.Server.LatestSnapshot(0) == nil {
		t.Fatal("successful checkpoint installed nothing")
	}
}

func TestStreamAndEventCreateSurfaceHandleExhaustion(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	c := h.Client
	h.Server.Runtime().SetHandleLimit(2)

	if _, err := c.StreamCreate(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EventCreate(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StreamCreate(); !errors.Is(err, cuda.ErrorMemoryAllocation) {
		t.Fatalf("stream beyond cap: %v", err)
	}
	if _, err := c.EventCreate(); !errors.Is(err, cuda.ErrorMemoryAllocation) {
		t.Fatalf("event beyond cap: %v", err)
	}
}

func TestDeviceSynchronizeReportsDeferredLaunchError(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	c := h.Client
	m, err := c.ModuleLoad(builtinFatbin())
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.ModuleGetFunction(m, cuda.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	// 4096 threads per block exceeds the device maximum.
	args := cuda.NewArgBuffer().Ptr(0).Ptr(0).Ptr(0).I32(1).Bytes()
	err = c.LaunchKernel(f, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 4096, Y: 1, Z: 1}, 0, 0, args)
	if !errors.Is(err, cuda.ErrorLaunchOutOfResources) {
		t.Fatalf("launch = %v", err)
	}
	// The failure is also reported at the next synchronize, once.
	if err := c.DeviceSynchronize(); !errors.Is(err, cuda.ErrorLaunchOutOfResources) {
		t.Fatalf("first sync = %v, want deferred launch error", err)
	}
	if err := c.DeviceSynchronize(); err != nil {
		t.Fatalf("second sync = %v, want success after error consumed", err)
	}
}

// Regression: a rejected cudaSetDevice (negative or out-of-range
// ordinal) must surface cudaErrorInvalidDevice in-band and must not
// poison the device the session replays after a server restart.
func TestSessionSetDeviceInvalidDoesNotPoisonReplay(t *testing.T) {
	e := newSessEnv(t, "")
	s := newTestSession(t, e)
	if _, err := s.Malloc(64); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, 9} {
		if err := s.SetDevice(bad); !errors.Is(err, cuda.ErrorInvalidDevice) {
			t.Fatalf("SetDevice(%d) = %v, want ErrorInvalidDevice", bad, err)
		}
	}
	// The replay after a restart re-selects the session's device; had
	// the rejected ordinal stuck, the whole recovery would fail here.
	e.restart()
	if _, err := s.Malloc(64); err != nil {
		t.Fatalf("recovery after rejected SetDevice: %v", err)
	}
	if st := s.SessionStats(); st.Replays != 1 {
		t.Fatalf("replays = %d, want 1", st.Replays)
	}
}

// Session.Close must release the lease eagerly even when its
// transport is already dead: it reconnects once purely to send the
// detach, so server resources are reclaimed now rather than when the
// TTL expires.
func TestSessionCloseDetachesOverDeadTransport(t *testing.T) {
	e := newSessEnv(t, "")
	e.server().SetLimits(Limits{LeaseTTL: time.Hour})
	s := newTestSession(t, e)
	if _, err := s.Malloc(64); err != nil {
		t.Fatal(err)
	}
	if got := e.server().LeaseCount(); got != 1 {
		t.Fatalf("leases before close = %d, want 1", got)
	}
	e.kill(false) // sever the transport; the server instance stays up
	s.Close()
	if got := e.server().LeaseCount(); got != 0 {
		t.Fatalf("leases after close over dead transport = %d, want 0 (lease leaked until TTL)", got)
	}
}

// When the server is unreachable at Close time the detach cannot be
// delivered at all; the lease must then fall back to TTL expiry and
// be reclaimed by the sweeper.
func TestSessionCloseFallsBackToLeaseTTL(t *testing.T) {
	e := newSessEnv(t, "")
	e.server().SetLimits(Limits{LeaseTTL: time.Millisecond})
	s := newTestSession(t, e)
	if _, err := s.Malloc(64); err != nil {
		t.Fatal(err)
	}
	e.kill(true) // server down: redials fail, the detach has nowhere to go
	s.Close()
	if got := e.server().LeaseCount(); got != 1 {
		t.Fatalf("leases right after close = %d, want 1 (TTL not yet expired)", got)
	}
	time.Sleep(10 * time.Millisecond)
	if n := e.server().SweepLeases(); n != 1 {
		t.Fatalf("sweeper reclaimed %d leases, want 1", n)
	}
	if got := e.server().LeaseCount(); got != 0 {
		t.Fatalf("leases after sweep = %d, want 0", got)
	}
}

// DeviceReset wipes the server's device, so the session must forget
// everything it tracked there: after a server kill, the replay carries
// exactly the traffic of a session that never created anything. The
// server resets even when it reports a pending async error, so the
// same holds when a queued launch failed — and that failure surfaces
// at the reset, once.
func TestSessionDeviceResetDropsTrackedResources(t *testing.T) {
	replayCalls := func(populate, failLaunch bool) uint64 {
		t.Helper()
		e := newSessEnv(t, "")
		s := newBatchSession(t, e, 8, nil)
		if populate {
			f, args, _ := launchSetup(t, s, 32)
			img := cuda.BuiltinImage(80)
			img.Globals = []cubin.GlobalVar{{Name: "d_LUT", Size: 512}}
			m, err := s.ModuleLoad(img.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.ModuleGetGlobal(m, "d_LUT"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.StreamCreate(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.EventCreate(); err != nil {
				t.Fatal(err)
			}
			block := batchDims.block
			if failLaunch {
				block = gpu.Dim3{X: 2048, Y: 1024, Z: 64} // over the device limit
			}
			if err := s.LaunchKernel(f, batchDims.grid, block, 0, 0, args); err != nil {
				t.Fatalf("enqueue: %v", err)
			}
			err = s.DeviceReset()
			if failLaunch == (err == nil) {
				t.Fatalf("DeviceReset = %v with failLaunch=%v", err, failLaunch)
			}
			if err := s.DeviceReset(); err != nil {
				t.Fatalf("second DeviceReset repeated the error: %v", err)
			}
		}
		e.restart()
		if err := s.Ping(); err != nil {
			t.Fatal(err)
		}
		if st := s.SessionStats(); st.Replays != 1 {
			t.Fatalf("Replays = %d, want 1", st.Replays)
		}
		return e.server().Stats().Calls
	}
	want := replayCalls(false, false)
	if got := replayCalls(true, false); got != want {
		t.Fatalf("replay after DeviceReset made %d server calls, an empty session makes %d", got, want)
	}
	if got := replayCalls(true, true); got != want {
		t.Fatalf("replay after a failed launch and DeviceReset made %d server calls, want %d", got, want)
	}
}

// DeviceReset destroys the device's streams and events on the server,
// so both cricket.API implementations answer a pre-reset handle with
// ErrorInvalidHandle and the handles stop counting against the cap. A
// session must not forward its stale virtual number instead: here that
// number names a live stream of another tenant on the second device.
func TestDeviceResetInvalidatesStreamsOnBothAPIs(t *testing.T) {
	for _, name := range []string{"client", "session"} {
		t.Run(name, func(t *testing.T) {
			e := newSessEnvMulti(t, "", 2)
			e.rt.SetHandleLimit(3)
			e.rt.SetDevice(1)
			other, _, err := e.rt.StreamCreate()
			if err != nil {
				t.Fatal(err)
			}
			e.rt.SetDevice(0)
			var api API = newTestSession(t, e)
			if name == "client" {
				conn, err := e.redial()
				if err != nil {
					t.Fatal(err)
				}
				c, err := Connect(conn, Options{Platform: guest.NativeRust()})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				api = c
			}
			st, err := api.StreamCreate()
			if err != nil {
				t.Fatal(err)
			}
			if name == "session" && st != other {
				t.Fatalf("virtual stream %d does not collide with server stream %d; the test pins nothing", st, other)
			}
			ev, err := api.EventCreate()
			if err != nil {
				t.Fatal(err)
			}
			if err := api.DeviceReset(); err != nil {
				t.Fatal(err)
			}
			for call, err := range map[string]error{
				"StreamSynchronize": api.StreamSynchronize(st),
				"EventRecord":       api.EventRecord(ev, 0),
				"EventDestroy":      api.EventDestroy(ev),
				"StreamDestroy":     api.StreamDestroy(st),
			} {
				if !errors.Is(err, cuda.ErrorInvalidHandle) {
					t.Errorf("%s on a pre-reset handle = %v, want ErrorInvalidHandle", call, err)
				}
			}
			if _, err := e.rt.StreamSynchronize(other); err != nil {
				t.Fatalf("the other device's stream after reset: %v", err)
			}
			for i := 0; i < 2; i++ {
				if _, err := api.StreamCreate(); err != nil {
					t.Fatalf("reset left its handles counted against the cap: %v", err)
				}
			}
		})
	}
}

// A launch that failed in the very last batch has no later sync point
// to surface at; Close must report it instead of dropping it.
func TestSessionCloseReportsLastBatchFailure(t *testing.T) {
	e := newSessEnv(t, "")
	s := newBatchSession(t, e, 8, nil)
	f, args, _ := launchSetup(t, s, 32)
	if err := s.LaunchKernel(f, batchDims.grid, gpu.Dim3{X: 2048, Y: 1024, Z: 64}, 0, 0, args); err != nil {
		t.Fatalf("enqueue returned inline error: %v", err)
	}
	var code cuda.Error
	if err := s.Close(); !errors.As(err, &code) {
		t.Fatalf("Close = %v, want the queued launch's CUDA error", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// Stats are cumulative over the session, not per connection: neither a
// dropped connection nor a server restart may make a counter go down.
func TestSessionStatsSurviveReconnect(t *testing.T) {
	e := newSessEnv(t, "")
	s := newTestSession(t, e)
	f, args, _ := launchSetup(t, s, 32)
	launch := func() Stats {
		t.Helper()
		if err := s.LaunchKernel(f, batchDims.grid, batchDims.block, 0, 0, args); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	prev := launch()
	if prev.KernelLaunches != 1 || prev.BytesToDevice != 2*32*4 {
		t.Fatalf("baseline stats %+v", prev)
	}
	for _, disturb := range []func(){func() { e.kill(false) }, e.restart} {
		disturb()
		st := launch()
		if st.KernelLaunches <= prev.KernelLaunches || st.BytesToDevice < prev.BytesToDevice ||
			st.APICalls <= prev.APICalls || st.ModuleBytes < prev.ModuleBytes {
			t.Fatalf("stats went backwards across a reconnect:\n  before %+v\n  after  %+v", prev, st)
		}
		prev = st
	}
	if st := s.SessionStats(); st.Reconnects != 2 || st.Replays != 1 {
		t.Fatalf("session stats %+v, want 2 reconnects with 1 replay", st)
	}
}

// With every admitted call stalled server-side, a control call trips
// CallTimeout while a bulk copy, bounded by the longer BulkTimeout,
// completes. The expiry is not a transport error: the session returns
// it to the caller and does not reconnect.
func TestSessionCallAndBulkTimeouts(t *testing.T) {
	e := newSessEnv(t, "")
	s, err := NewSession(SessionOptions{
		Options: Options{Platform: guest.NativeRust(), CallTimeout: 30 * time.Millisecond, BulkTimeout: 10 * time.Second},
		Redial:  e.redial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	e.server().SetExecModel(func() { time.Sleep(150 * time.Millisecond) })
	defer e.server().SetExecModel(nil)

	if _, err := s.GetDeviceCount(); !errors.Is(err, oncrpc.ErrTimeout) {
		t.Fatalf("stalled control call = %v, want oncrpc.ErrTimeout", err)
	}
	data := bytes.Repeat([]byte{0xa5}, 4096)
	if err := s.MemcpyHtoD(p, data); err != nil {
		t.Fatalf("bulk copy under BulkTimeout: %v", err)
	}
	got, err := s.MemcpyDtoH(p, 4096)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("bulk readback: err=%v, equal=%v", err, bytes.Equal(got, data))
	}
	if st := s.SessionStats(); st.Reconnects != 0 || st.DialAttempts != 1 {
		t.Fatalf("deadline expiry treated as a transport error: %+v", st)
	}
}

// TestSessionFreeSurvivesLostReply: a cudaFree that ran on the server
// but whose reply died with the connection is retried after the
// reconnect, on a lease that no longer holds the pointer. That is not
// the application's error: Free succeeds, one free happened, and the
// session goes on.
func TestSessionFreeSurvivesLostReply(t *testing.T) {
	run := func(wrap func(io.ReadWriteCloser) io.ReadWriteCloser, beforeFree func()) *Session {
		s := newBatchSession(t, newSessEnv(t, ""), 0, wrap)
		p, err := s.Malloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Memset(p, 1, 4096); err != nil {
			t.Fatal(err)
		}
		beforeFree()
		if err := s.Free(p); err != nil {
			t.Fatalf("Free: %v", err)
		}
		if q, err := s.Malloc(4096); err != nil || s.Free(q) != nil {
			t.Fatalf("malloc and free after the free: %v", err)
		}
		return s
	}
	// Fault-free twin: the bytes moved by the time Free is called.
	var moved atomic.Int64
	var freeAt int64
	run(func(conn io.ReadWriteCloser) io.ReadWriteCloser {
		return countConn{ReadWriteCloser: conn, n: &moved}
	}, func() { freeAt = moved.Load() })

	// The call record is mark, header and the pointer, 52 bytes: the
	// transport dies ten bytes into the reply.
	var dials atomic.Int32
	s := run(func(conn io.ReadWriteCloser) io.ReadWriteCloser {
		if dials.Add(1) > 1 {
			return conn
		}
		return netsim.NewFaultConn(conn, netsim.Fault{AfterBytes: freeAt + 52 + 10, Kind: netsim.FaultDrop})
	}, func() {})
	if st := s.SessionStats(); st.Reconnects != 1 || st.Replays != 0 {
		t.Fatalf("%d reconnects, %d replays: the fault did not fall in the free's reply", st.Reconnects, st.Replays)
	}
}
