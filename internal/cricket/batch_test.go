package cricket

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
)

// launchSetup loads the builtin vectorAdd kernel and allocates its
// three buffers, returning the function, the argument buffer, and the
// output pointer.
func launchSetup(t testing.TB, c API, n int) (cuda.Function, []byte, gpu.Ptr) {
	t.Helper()
	m, err := c.ModuleLoad(builtinFatbin())
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.ModuleGetFunction(m, cuda.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Malloc(uint64(n * 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Malloc(uint64(n * 4))
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Malloc(uint64(n * 4))
	if err != nil {
		t.Fatal(err)
	}
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
	args := cuda.NewArgBuffer().Ptr(a).Ptr(b).Ptr(out).I32(int32(n)).Bytes()
	return f, args, out
}

var batchDims = struct{ grid, block gpu.Dim3 }{
	grid:  gpu.Dim3{X: 1, Y: 1, Z: 1},
	block: gpu.Dim3{X: 128, Y: 1, Z: 1},
}

// vectorAddRun is the workload the batching-invariance test runs on
// each layer: ten launches, a memset and an async copy, one sync, one
// readback.
func vectorAddRun(t *testing.T, c API) ([]byte, Stats) {
	t.Helper()
	const n = 128
	f, args, out := launchSetup(t, c, n)
	for i := 0; i < 10; i++ {
		if err := c.LaunchKernel(f, batchDims.grid, batchDims.block, 0, 0, args); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Memset(out, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHtoDAsync(out, []byte{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	got, err := c.MemcpyDtoH(out, n*4)
	if err != nil {
		t.Fatal(err)
	}
	return got, c.Stats()
}

// A batched run and its unbatched twin must produce bit-identical
// device contents and report identical Stats, and a fault-free session
// must report what a bare Client reports plus exactly its one
// SRV_ATTACH handshake call.
func TestBatchedAndUnbatchedBitIdenticalWithSameStats(t *testing.T) {
	plainOut, plainStats := vectorAddRun(t, newBatchSession(t, newSessEnv(t, ""), 0, nil))
	batchOut, batchStats := vectorAddRun(t, newBatchSession(t, newSessEnv(t, ""), 4, nil))
	if !bytes.Equal(plainOut, batchOut) {
		t.Fatal("batched run produced different device contents")
	}
	if plainStats != batchStats {
		t.Fatalf("stats diverge:\n  unbatched %+v\n  batched   %+v", plainStats, batchStats)
	}
	clientOut, clientStats := vectorAddRun(t, newHarness(t, guest.NativeRust(), Options{}).Client)
	if !bytes.Equal(clientOut, plainOut) {
		t.Fatal("session run produced different device contents than a bare client")
	}
	clientStats.APICalls++ // SRV_ATTACH
	if plainStats != clientStats {
		t.Fatalf("session stats %+v, want bare client + 1 attach call %+v", plainStats, clientStats)
	}
}

// A bare Client has no queue: asking Connect for one is an error, not
// a silent fall-back to synchronous calls.
func TestConnectRejectsBatch(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	if c, err := Connect(cli, Options{Platform: guest.NativeRust(), Batch: 8}); err == nil {
		c.Close()
		t.Fatal("Connect accepted Options.Batch")
	}
}

// Queued work must reach the server before any synchronous RPC: a
// readback right after queued launches sees their effect even though
// the queue is far from its flush threshold.
func TestBatchFlushesBeforeSynchronousCall(t *testing.T) {
	const n = 64
	e := newSessEnv(t, "")
	s := newBatchSession(t, e, 1000, nil)
	f, args, out := launchSetup(t, s, n)
	if err := s.LaunchKernel(f, batchDims.grid, gpu.Dim3{X: n, Y: 1, Z: 1}, 0, 0, args); err != nil {
		t.Fatal(err)
	}
	got, err := s.MemcpyDtoH(out, n*4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := math.Float32frombits(binary.LittleEndian.Uint32(got[i*4:]))
		if v != float32(2*i) {
			t.Fatalf("out[%d] = %g: queued launch not flushed before readback", i, v)
		}
	}
	if kl := e.server().Stats().KernelLaunches; kl != 1 {
		t.Fatalf("server saw %d launches, want 1", kl)
	}
}

// The age timer bounds queue staleness: a queued launch ships without
// any further client activity.
func TestBatchAgeTimerFlushes(t *testing.T) {
	e := newSessEnv(t, "")
	s, err := NewSession(SessionOptions{
		Options: Options{Platform: guest.NativeRust(), Batch: 1000, BatchAge: 5 * time.Millisecond},
		Redial:  e.redial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, args, _ := launchSetup(t, s, 32)
	if err := s.LaunchKernel(f, batchDims.grid, batchDims.block, 0, 0, args); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.server().Stats().KernelLaunches == 0 {
		if time.Now().After(deadline) {
			t.Fatal("age timer never flushed the queue")
		}
		time.Sleep(time.Millisecond)
	}
}

// Topology queries are cached client-side when requested: repeat calls
// answer locally (no server round trip) and InvalidateTopology forces
// the next call back to the wire.
func TestTopologyCache(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{CacheTopology: true})
	base := h.Server.Stats().Calls

	for i := 0; i < 5; i++ {
		if n, err := h.Client.GetDeviceCount(); err != nil || n != 1 {
			t.Fatalf("count=%d err=%v", n, err)
		}
	}
	if got := h.Server.Stats().Calls - base; got != 1 {
		t.Fatalf("server saw %d GetDeviceCount calls, want 1", got)
	}
	var first cuda.DeviceProp
	for i := 0; i < 5; i++ {
		p, err := h.Client.GetDeviceProperties(0)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = p
		} else if p != first {
			t.Fatal("cached properties diverge from first answer")
		}
	}
	if got := h.Server.Stats().Calls - base; got != 2 {
		t.Fatalf("server saw %d topology calls, want 2", got)
	}
	if st := h.Client.Stats(); st.APICalls != 10 {
		t.Fatalf("client APICalls = %d, want 10: cached hits still count", st.APICalls)
	}

	h.Client.InvalidateTopology()
	if _, err := h.Client.GetDeviceCount(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Client.GetDeviceProperties(0); err != nil {
		t.Fatal(err)
	}
	if got := h.Server.Stats().Calls - base; got != 4 {
		t.Fatalf("server saw %d topology calls after invalidation, want 4", got)
	}
}

// The uncached default keeps Fig 6a honest: every query pays the round
// trip.
func TestTopologyUncachedByDefault(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	base := h.Server.Stats().Calls
	for i := 0; i < 3; i++ {
		if _, err := h.Client.GetDeviceCount(); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Server.Stats().Calls - base; got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}
