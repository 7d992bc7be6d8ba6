package cricket

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/guest"
	"cricket/internal/oncrpc"
	"cricket/internal/xdr"
)

// fakeClock is an injectable time source for deterministic lease-expiry
// tests: the sweeper fires exactly when the test advances it, never
// because the test ran slowly.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func installFakeClock(srv *Server) *fakeClock {
	fc := &fakeClock{now: time.Unix(1_000_000, 0)}
	srv.mu.Lock()
	srv.clock = fc.Now
	srv.mu.Unlock()
	return fc
}

func (fc *fakeClock) Now() time.Time {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.now
}

func (fc *fakeClock) Advance(d time.Duration) {
	fc.mu.Lock()
	fc.now = fc.now.Add(d)
	fc.mu.Unlock()
}

func governedClient(t *testing.T, e *sessEnv, nonce uint64) (*Client, LeaseInfo) {
	t.Helper()
	conn, err := e.redial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(conn, Options{Platform: guest.NativeRust()})
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	info, err := c.Attach(nonce)
	if err != nil {
		c.Close()
		t.Fatalf("Attach: %v", err)
	}
	return c, info
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLeaseSweeperReclaimsOrphanedResources(t *testing.T) {
	e := newSessEnv(t, "")
	srv := e.server()
	srv.SetLimits(Limits{LeaseTTL: 50 * time.Millisecond})
	fc := installFakeClock(srv)

	c, info := governedClient(t, e, 0xbeef)
	if info.Fresh != 1 {
		t.Fatalf("first attach Fresh = %d, want 1", info.Fresh)
	}
	if info.TtlMs != 50 {
		t.Fatalf("TtlMs = %d, want 50", info.TtlMs)
	}
	if _, err := c.Malloc(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ModuleLoad(builtinFatbin()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StreamCreate(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EventCreate(); err != nil {
		t.Fatal(err)
	}
	dev, err := e.rt.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	if dev.LiveAllocations() == 0 {
		t.Fatal("allocation did not land on the device")
	}

	// Kill the client without detaching: the lease is now an orphan
	// whose expiry clock starts at ConnEnd.
	c.Close()
	waitUntil(t, "scheduler detach on disconnect", func() bool {
		return len(srv.Scheduler().Clients()) == 0
	})

	if n := srv.SweepLeases(); n != 0 {
		t.Fatalf("sweep before TTL reclaimed %d leases, want 0", n)
	}
	fc.Advance(51 * time.Millisecond)
	if n := srv.SweepLeases(); n != 1 {
		t.Fatalf("sweep after TTL reclaimed %d leases, want 1", n)
	}
	if got := srv.LeaseCount(); got != 0 {
		t.Fatalf("LeaseCount = %d after sweep, want 0", got)
	}
	if got := dev.LiveAllocations(); got != 0 {
		t.Fatalf("device still holds %d allocations after sweep", got)
	}
	st := srv.Stats()
	if st.LeasesExpired != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", st.LeasesExpired)
	}
	if st.ReclaimedBytes != 4096 {
		t.Fatalf("ReclaimedBytes = %d, want 4096", st.ReclaimedBytes)
	}
	// alloc + module + stream + event
	if st.ReclaimedHandles != 4 {
		t.Fatalf("ReclaimedHandles = %d, want 4", st.ReclaimedHandles)
	}
}

func TestDisconnectDetachesSchedulerKeepsLeaseWithoutTTL(t *testing.T) {
	e := newSessEnv(t, "")
	srv := e.server()

	c, _ := governedClient(t, e, 0xcafe)
	if got := len(srv.Scheduler().Clients()); got != 1 {
		t.Fatalf("scheduler clients = %d after attach, want 1", got)
	}
	p, err := c.Malloc(512)
	if err != nil {
		t.Fatal(err)
	}

	c.Close()
	waitUntil(t, "scheduler detach on disconnect", func() bool {
		return len(srv.Scheduler().Clients()) == 0
	})
	// No TTL: the lease — and the memory it tags — must survive the
	// disconnect, exactly like an ungoverned server.
	if got := srv.LeaseCount(); got != 1 {
		t.Fatalf("LeaseCount = %d after disconnect with no TTL, want 1", got)
	}

	// Reconnecting with the same nonce re-binds the same lease and
	// re-attaches the scheduler slot; the old allocation is still live.
	c2, info := governedClient(t, e, 0xcafe)
	defer c2.Close()
	if info.Fresh != 0 {
		t.Fatalf("re-attach Fresh = %d, want 0 (re-bound lease)", info.Fresh)
	}
	if got := len(srv.Scheduler().Clients()); got != 1 {
		t.Fatalf("scheduler clients = %d after re-attach, want 1", got)
	}
	if err := c2.Free(p); err != nil {
		t.Fatalf("allocation did not survive reconnect: %v", err)
	}
}

// TestSessionReplaysBitIdenticallyOntoFreshLease is the tentpole's
// recovery contract: a Session that reconnects after its lease expired
// (handles swept, memory freed) gets a fresh lease, replays, and the
// workload result is bit-identical to a fault-free run.
func TestSessionReplaysBitIdenticallyOntoFreshLease(t *testing.T) {
	e1 := newSessEnv(t, "")
	s1 := newTestSession(t, e1)
	want := matmulWorkload(t, s1, nil)

	e2 := newSessEnv(t, "")
	srv := e2.server()
	srv.SetLimits(Limits{LeaseTTL: 50 * time.Millisecond})
	fc := installFakeClock(srv)
	s2 := newTestSession(t, e2)

	got := matmulWorkload(t, s2, func() {
		// Sever the connection (server instance stays up), let the
		// lease expire, and sweep: every handle the workload created is
		// reclaimed before the session's next call.
		e2.kill(false)
		waitUntil(t, "scheduler detach on disconnect", func() bool {
			return len(srv.Scheduler().Clients()) == 0
		})
		fc.Advance(51 * time.Millisecond)
		if n := srv.SweepLeases(); n != 1 {
			t.Fatalf("sweep reclaimed %d leases, want 1", n)
		}
		dev, err := e2.rt.Device(0)
		if err != nil {
			t.Fatal(err)
		}
		if got := dev.LiveAllocations(); got != 0 {
			t.Fatalf("device still holds %d allocations after sweep", got)
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatal("result differs from fault-free run after expired-lease replay")
	}
	st := s2.SessionStats()
	if st.Reconnects != 1 || st.Replays != 1 {
		t.Fatalf("stats = %+v, want 1 reconnect with 1 replay", st)
	}
	if st.Restores != 1 {
		t.Fatalf("Restores = %d, want 1: contents must come back from the checkpoint", st.Restores)
	}
	if srv.Stats().LeasesExpired != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", srv.Stats().LeasesExpired)
	}
}

func TestMaxClientsShedsInBandThenAdmitsAfterSlotFrees(t *testing.T) {
	e := newSessEnv(t, "")
	srv := e.server()
	srv.SetLimits(Limits{MaxClients: 1, RetryAfter: 5 * time.Millisecond})

	s1 := newTestSession(t, e) // holds the only slot
	if err := s1.Ping(); err != nil {
		t.Fatal(err)
	}

	// A raw client sees the shed as the in-band overload code plus the
	// configured retry hint — not a transport error.
	conn, err := e.redial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(conn, Options{Platform: guest.NativeRust()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, aerr := c.Attach(0x7777)
	var ce cuda.Error
	if !errors.As(aerr, &ce) || ce != cuda.ErrorServerOverloaded {
		t.Fatalf("Attach over MaxClients = %v, want cudaErrorServerOverloaded", aerr)
	}
	if hint := c.TakeRetryHint(); hint != 5*time.Millisecond {
		t.Fatalf("retry hint = %v, want 5ms", hint)
	}
	if srv.Stats().CallsShed == 0 {
		t.Fatal("shed attach not counted in ServerStats.CallsShed")
	}

	// A bounded Session gives up with the same in-band code.
	_, serr := NewSession(SessionOptions{
		Options:     Options{Platform: guest.NativeRust()},
		Redial:      e.redial,
		Nonce:       0x8888,
		Seed:        2,
		MaxAttempts: 3,
		Sleep:       func(time.Duration) {},
	})
	if !errors.As(serr, &ce) || ce != cuda.ErrorServerOverloaded {
		t.Fatalf("NewSession over MaxClients = %v, want cudaErrorServerOverloaded", serr)
	}

	// A backoff-respecting Session outlasts the overload: the slot
	// frees mid-retry and the attach eventually succeeds.
	go func() {
		time.Sleep(10 * time.Millisecond)
		s1.Close()
	}()
	s2, err := NewSession(SessionOptions{
		Options:     Options{Platform: guest.NativeRust()},
		Redial:      e.redial,
		Nonce:       0x9999,
		Seed:        3,
		MaxAttempts: 500,
		Sleep:       func(time.Duration) { time.Sleep(time.Millisecond) },
	})
	if err != nil {
		t.Fatalf("backoff-respecting NewSession never admitted: %v", err)
	}
	defer s2.Close()
	if err := s2.Ping(); err != nil {
		t.Fatal(err)
	}
	if s2.SessionStats().Overloads == 0 {
		t.Fatal("admitted session saw no overloads — the cap never engaged")
	}
}

func TestMaxClientMemQuotaClampsAndRefunds(t *testing.T) {
	e := newSessEnv(t, "")
	e.server().SetLimits(Limits{MaxClientMem: 8192})

	c, info := governedClient(t, e, 0xfeed)
	defer c.Close()
	if info.MemLimit != 8192 {
		t.Fatalf("lease MemLimit = %d, want 8192", info.MemLimit)
	}

	free, total, err := c.MemGetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if total != 8192 || free != 8192 {
		t.Fatalf("MemGetInfo = (free %d, total %d), want quota view (8192, 8192)", free, total)
	}

	p, err := c.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	free, total, err = c.MemGetInfo()
	if err != nil {
		t.Fatal(err)
	}
	if total != 8192 || free != 4096 {
		t.Fatalf("MemGetInfo after 4KiB alloc = (free %d, total %d), want (4096, 8192)", free, total)
	}

	// Over quota: a permanent allocation failure, not overload —
	// retrying cannot help.
	_, err = c.Malloc(8192)
	var ce cuda.Error
	if !errors.As(err, &ce) || ce != cuda.ErrorMemoryAllocation {
		t.Fatalf("over-quota Malloc = %v, want cudaErrorMemoryAllocation", err)
	}
	if hint := c.TakeRetryHint(); hint != 0 {
		t.Fatalf("quota failure carried retry hint %v, want none", hint)
	}

	// Freeing refunds the quota in full.
	if err := c.Free(p); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Malloc(8192); err != nil {
		t.Fatalf("full-quota Malloc after refund: %v", err)
	}
}

func TestMaxInflightShedsWithRetryHint(t *testing.T) {
	e := newSessEnv(t, "")
	srv := e.server()
	srv.SetLimits(Limits{MaxInflight: 1, RetryAfter: 7 * time.Millisecond})

	c, _ := governedClient(t, e, 0xabcd)
	defer c.Close()

	// Occupy the only execution slot directly; the simulated runtime
	// completes real calls instantly, so contention is injected rather
	// than raced.
	srv.mu.Lock()
	srv.inflight = 1
	srv.mu.Unlock()

	_, err := c.GetDeviceCount()
	var ce cuda.Error
	if !errors.As(err, &ce) || ce != cuda.ErrorServerOverloaded {
		t.Fatalf("call over MaxInflight = %v, want cudaErrorServerOverloaded", err)
	}
	if hint := c.TakeRetryHint(); hint != 7*time.Millisecond {
		t.Fatalf("retry hint = %v, want 7ms", hint)
	}
	if hint := c.TakeRetryHint(); hint != 0 {
		t.Fatalf("second TakeRetryHint = %v, want 0 (consumed)", hint)
	}
	if got := srv.Stats().CallsShed; got != 1 {
		t.Fatalf("CallsShed = %d, want 1", got)
	}

	srv.mu.Lock()
	srv.inflight = 0
	srv.mu.Unlock()
	if _, err := c.GetDeviceCount(); err != nil {
		t.Fatalf("call after slot freed: %v", err)
	}
}

// TestGateReservesASlotForTheShedCaller: with one slot and two
// connections, the one that holds the slot and re-enters back to back
// cannot keep out the one that was shed and is sleeping out its hint.
// The reservation that ensures it lapses on the server's clock, and
// with its connection.
func TestGateReservesASlotForTheShedCaller(t *testing.T) {
	e := newSessEnv(t, "")
	srv := e.server()
	const hint = 7 * time.Millisecond
	srv.SetLimits(Limits{MaxInflight: 1, RetryAfter: hint})
	fc := installFakeClock(srv)
	holder, _ := governedClient(t, e, 0x1)
	defer holder.Close()
	waiter, _ := governedClient(t, e, 0x2)

	sheds := uint64(0)
	call := func(c *Client, wantShed bool, what string) {
		t.Helper()
		_, err := c.GetDeviceCount()
		if wantShed {
			sheds++
			if !isOverload(err) {
				t.Fatalf("%s: %v, want the call shed", what, err)
			}
			if got := c.TakeRetryHint(); got != hint {
				t.Fatalf("%s: retry hint %v, want %v", what, got, hint)
			}
		} else if err != nil {
			t.Fatalf("%s: %v, want the call admitted", what, err)
		}
		if got := srv.Stats().CallsShed; got != sheds {
			t.Fatalf("%s: CallsShed = %d, want %d", what, got, sheds)
		}
	}

	for round := 0; round < 3; round++ {
		// The waiter arrives while the holder's call is executing.
		entered, release := make(chan struct{}), make(chan struct{})
		srv.SetExecModel(func() { entered <- struct{}{}; <-release })
		held := make(chan error, 1)
		go func() { _, err := holder.GetDeviceCount(); held <- err }()
		<-entered
		srv.SetExecModel(nil)
		call(waiter, true, "waiter, slot taken")
		close(release)
		if err := <-held; err != nil {
			t.Fatal(err)
		}
		// The slot is free and the waiter asleep: it is the waiter's,
		// who is therefore not shed twice in a row. Then it is the
		// holder's, who has been kept waiting in turn.
		call(holder, true, "holder re-entering ahead of the waiter")
		call(waiter, false, "waiter, back after its hint")
		call(waiter, true, "waiter re-entering ahead of the holder")
		call(holder, false, "holder, back after its hint")
		call(waiter, false, "waiter, holding a reservation of its own")
	}

	// A shed caller that never comes back keeps others out only until
	// its reservation runs out on the server's clock.
	srv.mu.Lock()
	srv.inflight = 1
	srv.mu.Unlock()
	call(waiter, true, "waiter, slot taken")
	srv.mu.Lock()
	srv.inflight = 0
	srv.mu.Unlock()
	fc.Advance(reserveHints * hint)
	call(holder, true, "holder, waiter's reservation still good")
	call(holder, false, "holder, holding a reservation of its own")
	fc.Advance(1)
	call(holder, false, "holder, waiter's reservation run out")

	// Or until its connection ends.
	srv.mu.Lock()
	srv.inflight = 1
	srv.mu.Unlock()
	call(waiter, true, "waiter, slot taken")
	srv.mu.Lock()
	srv.inflight = 0
	srv.mu.Unlock()
	waiter.Close()
	waitUntil(t, "the closed connection's reservation to go", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.reserved) == 0
	})
	call(holder, false, "holder, waiter gone")
}

// A device reset frees the device's memory and destroys its handles
// for every tenant, so every lease's books must follow: a tag that
// outlives its resource keeps quota charged for good and, once the
// fresh allocator reissues the address, makes a later release free
// another tenant's buffer.
func TestDeviceResetSquaresLeaseBooks(t *testing.T) {
	t.Run("quota is refunded", func(t *testing.T) {
		e := newSessEnv(t, "")
		e.server().SetLimits(Limits{MaxClientMem: 1 << 20})
		c, _ := governedClient(t, e, 0xa1)
		defer c.Close()
		if _, err := c.Malloc(1 << 20); err != nil {
			t.Fatal(err)
		}
		if err := c.DeviceReset(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Malloc(4096); err != nil {
			t.Fatalf("Malloc after the reset freed the whole quota: %v", err)
		}
		if free, _, err := c.MemGetInfo(); err != nil || free != 1<<20-4096 {
			t.Fatalf("MemGetInfo free = %d, %v; want the quota less the one live allocation", free, err)
		}
	})

	t.Run("a reissued address is not freed by the old owner", func(t *testing.T) {
		e := newSessEnv(t, "")
		a, _ := governedClient(t, e, 0xa2)
		defer a.Close()
		b, _ := governedClient(t, e, 0xb2)
		defer b.Close()
		pa, err := a.Malloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.DeviceReset(); err != nil {
			t.Fatal(err)
		}
		pb, err := b.Malloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if pb != pa {
			t.Fatalf("the fresh allocator gave %#x, not the pre-reset %#x; the test pins nothing", pb, pa)
		}
		if err := a.Detach(); err != nil {
			t.Fatal(err)
		}
		if _, err := b.MemcpyDtoH(pb, 4096); err != nil {
			t.Fatalf("tenant B's buffer after tenant A detached: %v", err)
		}
		if got := e.server().Stats().ReclaimedBytes; got != 0 {
			t.Fatalf("A's detach reclaimed %d bytes, want 0: the reset left it nothing", got)
		}
	})

	t.Run("only the reset device's tags are dropped", func(t *testing.T) {
		e := newSessEnvMulti(t, "", 2)
		srv := e.server()
		c, info := governedClient(t, e, 0xa3)
		defer c.Close()
		if err := c.SetDevice(1); err != nil {
			t.Fatal(err)
		}
		keep, err := c.StreamCreate()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetDevice(0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Malloc(512); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ModuleLoad(builtinFatbin()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.StreamCreate(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.EventCreate(); err != nil {
			t.Fatal(err)
		}
		if err := c.DeviceReset(); err != nil {
			t.Fatal(err)
		}
		srv.mu.Lock()
		ls := srv.leases[info.LeaseId]
		_, kept := ls.streams[keep]
		counts := []int{len(ls.allocs), len(ls.modules), len(ls.streams), len(ls.events)}
		mem := ls.mem
		srv.mu.Unlock()
		if want := []int{0, 0, 1, 0}; !kept || !slices.Equal(counts, want) || mem != 0 {
			t.Fatalf("lease after reset: allocs/modules/streams/events = %v (device 1's stream kept: %v), mem %d; want %v, true, 0",
				counts, kept, mem, want)
		}
	})
}

// st shapes a bare-status reply for stubCalls.
func st(code int32, err error) ([]int32, error) { return []int32{code}, err }

// stubCalls fires each procedure through the generated client stub and
// returns the statuses its reply carried in-band (none for the two
// results without a CUDA status). TestGateShedsEveryProcedure ranges
// over the generated name table, so a procedure added to cricket.x
// without a row here fails it.
var stubCalls = map[uint32]func(g *RpcCdVersClient) ([]int32, error){
	ProcRpcNull:            func(g *RpcCdVersClient) ([]int32, error) { return nil, g.RpcNull() },
	ProcCudaGetDeviceCount: func(g *RpcCdVersClient) ([]int32, error) { r, err := g.CudaGetDeviceCount(); return st(r.Err, err) },
	ProcCudaGetDeviceProperties: func(g *RpcCdVersClient) ([]int32, error) {
		r, err := g.CudaGetDeviceProperties(0)
		return st(r.Err, err)
	},
	ProcCudaSetDevice:         func(g *RpcCdVersClient) ([]int32, error) { return st(g.CudaSetDevice(0)) },
	ProcCudaGetDevice:         func(g *RpcCdVersClient) ([]int32, error) { r, err := g.CudaGetDevice(); return st(r.Err, err) },
	ProcCudaMalloc:            func(g *RpcCdVersClient) ([]int32, error) { r, err := g.CudaMalloc(64); return st(r.Err, err) },
	ProcCudaFree:              func(g *RpcCdVersClient) ([]int32, error) { return st(g.CudaFree(1)) },
	ProcCudaMemcpyHtod:        func(g *RpcCdVersClient) ([]int32, error) { return st(g.CudaMemcpyHtod(1, make(MemData, 64))) },
	ProcCudaMemcpyDtoh:        func(g *RpcCdVersClient) ([]int32, error) { r, err := g.CudaMemcpyDtoh(1, 64); return st(r.Err, err) },
	ProcCudaMemcpyDtod:        func(g *RpcCdVersClient) ([]int32, error) { return st(g.CudaMemcpyDtod(1, 2, 64)) },
	ProcCudaMemset:            func(g *RpcCdVersClient) ([]int32, error) { return st(g.CudaMemset(1, 0, 64)) },
	ProcCudaMemGetInfo:        func(g *RpcCdVersClient) ([]int32, error) { r, err := g.CudaMemGetInfo(); return st(r.Err, err) },
	ProcCudaDeviceSynchronize: func(g *RpcCdVersClient) ([]int32, error) { return st(g.CudaDeviceSynchronize()) },
	ProcCudaDeviceReset:       func(g *RpcCdVersClient) ([]int32, error) { return st(g.CudaDeviceReset()) },
	ProcCudaStreamCreate:      func(g *RpcCdVersClient) ([]int32, error) { r, err := g.CudaStreamCreate(); return st(r.Err, err) },
	ProcCudaStreamDestroy:     func(g *RpcCdVersClient) ([]int32, error) { return st(g.CudaStreamDestroy(1)) },
	ProcCudaStreamSynchronize: func(g *RpcCdVersClient) ([]int32, error) { return st(g.CudaStreamSynchronize(0)) },
	ProcCudaEventCreate:       func(g *RpcCdVersClient) ([]int32, error) { r, err := g.CudaEventCreate(); return st(r.Err, err) },
	ProcCudaEventRecord:       func(g *RpcCdVersClient) ([]int32, error) { return st(g.CudaEventRecord(1, 0)) },
	ProcCudaEventElapsed:      func(g *RpcCdVersClient) ([]int32, error) { r, err := g.CudaEventElapsed(1, 2); return st(r.Err, err) },
	ProcCudaEventDestroy:      func(g *RpcCdVersClient) ([]int32, error) { return st(g.CudaEventDestroy(1)) },
	ProcCuModuleLoad: func(g *RpcCdVersClient) ([]int32, error) {
		r, err := g.CuModuleLoad(builtinFatbin())
		return st(r.Err, err)
	},
	ProcCuModuleUnload: func(g *RpcCdVersClient) ([]int32, error) { return st(g.CuModuleUnload(1)) },
	ProcCuModuleGetFunction: func(g *RpcCdVersClient) ([]int32, error) {
		r, err := g.CuModuleGetFunction(1, "k")
		return st(r.Err, err)
	},
	ProcCuModuleGetGlobal: func(g *RpcCdVersClient) ([]int32, error) {
		r, err := g.CuModuleGetGlobal(1, "g")
		return st(r.Err, err)
	},
	ProcCuLaunchKernel: func(g *RpcCdVersClient) ([]int32, error) {
		return st(g.CuLaunchKernel(LaunchArgs{Func: 1, Params: make(MemData, 24)}))
	},
	ProcCkpCheckpoint: func(g *RpcCdVersClient) ([]int32, error) { return st(g.CkpCheckpoint()) },
	ProcCkpRestore:    func(g *RpcCdVersClient) ([]int32, error) { return st(g.CkpRestore()) },
	ProcMtSetTransfer: func(g *RpcCdVersClient) ([]int32, error) { return st(g.MtSetTransfer(0, 1)) },
	ProcSrvGetEpoch:   func(g *RpcCdVersClient) ([]int32, error) { _, err := g.SrvGetEpoch(); return nil, err },
	ProcBatchExec: func(g *RpcCdVersClient) ([]int32, error) {
		r, err := g.BatchExec(BatchArgs{Entries: []BatchEntry{
			{Op: BatchOpMemset, Handle: 1, N: 64},
			{Op: BatchOpMemcpyHtod, Handle: 1, Data: make(MemData, 64)},
			{Op: BatchOpStreamSync},
		}})
		return r.Status, err
	},
	ProcBatchExecRead: func(g *RpcCdVersClient) ([]int32, error) {
		r, err := g.BatchExecRead(BatchArgs{Entries: []BatchEntry{
			{Op: BatchOpSetDevice},
			{Op: BatchOpStreamSync},
			{Op: BatchOpMemcpyDtoh, Handle: 1, N: 64},
		}})
		return r.Status, err
	},
	ProcSrvAttach: func(g *RpcCdVersClient) ([]int32, error) {
		r, err := g.SrvAttach(AttachArgs{Nonce: 0x6a7e})
		return st(r.Err, err)
	},
	ProcSrvRenew:  func(g *RpcCdVersClient) ([]int32, error) { return st(g.SrvRenew()) },
	ProcSrvDetach: func(g *RpcCdVersClient) ([]int32, error) { return st(g.SrvDetach()) },
}

// The admission gate answers for every procedure at once: a parked or
// saturated server sheds each governed call in-band — the overload
// code in the result's own shape, the AUTH_RETRY hint on the reply, one
// CallsShed, and no handler run — while epoch discovery, attach and
// detach are answered as usual.
func TestGateShedsEveryProcedure(t *testing.T) {
	refusals := map[string]func(*testing.T, *Server){
		"parked": func(t *testing.T, srv *Server) {
			srv.SetLimits(Limits{RetryAfter: 7 * time.Millisecond})
			if err := srv.Park(); err != nil {
				t.Fatal(err)
			}
		},
		"saturated": func(t *testing.T, srv *Server) {
			srv.SetLimits(Limits{MaxInflight: 1, RetryAfter: 7 * time.Millisecond})
			srv.mu.Lock()
			srv.inflight = 1
			srv.mu.Unlock()
		},
	}
	for name, refuse := range refusals {
		t.Run(name, func(t *testing.T) {
			e := newSessEnv(t, "")
			srv := e.server()
			refuse(t, srv)
			conn, err := e.redial()
			if err != nil {
				t.Fatal(err)
			}
			rpc := oncrpc.NewClient(conn, RpcCdProg, RpcCdVers)
			defer rpc.Close()
			g := NewRpcCdVersClient(rpc)

			for proc, pname := range RpcCdVersProcNames {
				call := stubCalls[uint32(proc)]
				if call == nil {
					t.Fatalf("%s: no stubCalls row", pname)
				}
				before := srv.Stats()
				status, err := call(g)
				if err != nil {
					t.Fatalf("%s: %v", pname, err)
				}
				after := srv.Stats()
				hint := rpc.TakeRetryHint()
				if !governed(uint32(proc)) {
					if after.Calls != before.Calls+1 || after.CallsShed != before.CallsShed || hint != 0 ||
						slices.Contains(status, overloadCode) {
						t.Errorf("%s bypasses the gate, yet: status %v, hint %v, Calls +%d, CallsShed +%d",
							pname, status, hint, after.Calls-before.Calls, after.CallsShed-before.CallsShed)
					}
					continue
				}
				want := []int32{overloadCode}
				switch proc {
				case ProcRpcNull:
					want = nil
				case ProcBatchExec, ProcBatchExecRead:
					want = []int32{overloadCode, overloadCode, overloadCode}
				}
				if !slices.Equal(status, want) {
					t.Errorf("%s: in-band status %v, want %v", pname, status, want)
				}
				if hint != 7*time.Millisecond {
					t.Errorf("%s: retry hint %v, want 7ms", pname, hint)
				}
				if after.CallsShed != before.CallsShed+1 || after.Calls != before.Calls {
					t.Errorf("%s: CallsShed +%d, Calls +%d; want +1 and +0 (no handler may run)",
						pname, after.CallsShed-before.CallsShed, after.Calls-before.Calls)
				}
			}
		})
	}
}

// Shed replies are pinned to the byte: the status alone for every
// result that leads with one — what encoding that result with the
// overload code and a void arm gives —, nothing for RPC_NULL, and a
// counted status vector for BATCH_EXEC, whose arguments are read no
// further than the count, and the same vector plus an empty opaque for
// BATCH_EXEC_READ.
func TestShedReplyGoldenBytes(t *testing.T) {
	code := []byte{0x00, 0x00, 0x03, 0xe8} // cudaErrorServerOverloaded = 1000
	batchArgs := []byte{0, 0, 0, 3, 0xde, 0xad}
	batchReply := slices.Concat([]byte{0, 0, 0, 3}, code, code, code)
	batchReadReply := slices.Concat(batchReply, []byte{0, 0, 0, 0})
	for proc, pname := range RpcCdVersProcNames {
		if !governed(uint32(proc)) {
			continue
		}
		want := code
		switch proc {
		case ProcRpcNull:
			want = nil
		case ProcBatchExec:
			want = batchReply
		case ProcBatchExecRead:
			want = batchReadReply
		}
		var out bytes.Buffer
		enc := xdr.NewEncoder(&out)
		if err := shedReply(uint32(proc), xdr.NewDecoder(bytes.NewReader(batchArgs)), enc); err != nil || enc.Err() != nil {
			t.Fatalf("%s: %v / %v", pname, err, enc.Err())
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: shed reply % x, want % x", pname, out.Bytes(), want)
		}
	}
	for _, r := range []xdr.Marshaler{
		&IntResult{Err: overloadCode}, &PropResult{Err: overloadCode}, &PtrResult{Err: overloadCode},
		&DataResult{Err: overloadCode}, &MemInfoResult{Err: overloadCode}, &HandleResult{Err: overloadCode},
		&FloatResult{Err: overloadCode}, &GlobalResult{Err: overloadCode},
	} {
		var out bytes.Buffer
		if err := r.MarshalXDR(xdr.NewEncoder(&out)); err != nil || !bytes.Equal(out.Bytes(), code) {
			t.Errorf("%T with the overload code encodes as % x (%v), want the status alone", r, out.Bytes(), err)
		}
	}
	var out bytes.Buffer
	err := shedReply(ProcBatchExec, xdr.NewDecoder(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})), xdr.NewEncoder(&out))
	if !errors.Is(err, oncrpc.ErrGarbageArgs) || out.Len() != 0 {
		t.Errorf("forged batch count: err %v, %d reply bytes; want GARBAGE_ARGS and none", err, out.Len())
	}
}

// An admitted call whose arguments do not decode is the generated
// dispatcher's GARBAGE_ARGS, and the gate still releases its slot.
func TestGateReleasesSlotOnGarbageArgs(t *testing.T) {
	e := newSessEnv(t, "")
	srv := e.server()
	conn, err := e.redial()
	if err != nil {
		t.Fatal(err)
	}
	rpc := oncrpc.NewClient(conn, RpcCdProg, RpcCdVers)
	defer rpc.Close()
	var ret PtrResult
	err = rpc.Call(ProcCudaMalloc, nil, &ret) // CUDA_MALLOC takes a size
	var ae *oncrpc.AcceptError
	if !errors.As(err, &ae) || ae.Stat != oncrpc.GarbageArgs {
		t.Fatalf("CUDA_MALLOC without arguments = %v, want GARBAGE_ARGS", err)
	}
	srv.mu.Lock()
	inflight := srv.inflight
	srv.mu.Unlock()
	if st := srv.Stats(); inflight != 0 || st.Calls != 0 || st.CallsShed != 0 {
		t.Fatalf("after GARBAGE_ARGS: inflight %d, Calls %d, CallsShed %d; want all 0", inflight, st.Calls, st.CallsShed)
	}
}

// One tenant resets the device while another allocates and frees on
// it: the reset's sweep over every lease shares Server.mu with the
// other connection's tagging (run under -race), and whatever the
// interleaving, detaching both leaves no allocation and no lease.
func TestDeviceResetConcurrentWithTagging(t *testing.T) {
	e := newSessEnv(t, "")
	e.server().SetLimits(Limits{MaxClientMem: 1 << 20})
	a, _ := governedClient(t, e, 0xa4)
	defer a.Close()
	b, _ := governedClient(t, e, 0xb4)
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if p, err := b.Malloc(4096); err == nil {
				b.Free(p) // fails when the reset already took the allocation
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if err := a.DeviceReset(); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	for _, c := range []*Client{a, b} {
		if err := c.Detach(); err != nil {
			t.Fatal(err)
		}
	}
	dev, err := e.rt.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	if live, leases := dev.LiveAllocations(), e.server().LeaseCount(); live != 0 || leases != 0 {
		t.Fatalf("after both tenants detached: %d live allocations, %d leases", live, leases)
	}
}
