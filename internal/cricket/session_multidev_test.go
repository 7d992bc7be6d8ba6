package cricket

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
)

// twoDevOpts configures twoDevWorkload. The workload deliberately
// interleaves SetDevice with module/alloc/stream/event creation so a
// replay that loses track of per-resource devices rebuilds state on
// the wrong arena — device arenas share a base address, so that bug
// shows up as silent corruption, not an error.
type twoDevOpts struct {
	checkpoint bool   // per-device Checkpoint after upload
	mid        func() // disturbance between upload and launch
	reupload   bool   // re-upload inputs after mid (no-checkpoint failover)
}

// twoDevResources is one device's share of the workload.
type twoDevResources struct {
	fn           cuda.Function
	a, b, out    gpu.Ptr
	st           cuda.Stream
	ev           cuda.Event
	hostA, hostB []byte
}

const twoDevN = 192 // floats per vector, distinct from other tests

func twoDevInput(dev, which int) []byte {
	buf := make([]byte, twoDevN*4)
	for i := 0; i < twoDevN; i++ {
		v := float32(i%13)*0.5 + float32(dev+1)*0.25 + float32(which)*2
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	return buf
}

// twoDevWorkload runs vectorAdd with distinct inputs on devices 0 and
// 1 and returns the concatenated outputs. Resource creation is
// interleaved across SetDevice switches on purpose.
func twoDevWorkload(t *testing.T, s *Session, o twoDevOpts) []byte {
	t.Helper()
	var r [2]twoDevResources
	size := uint64(twoDevN * 4)

	mustDev := func(d int) {
		if err := s.SetDevice(d); err != nil {
			t.Fatalf("SetDevice(%d): %v", d, err)
		}
	}
	loadFn := func() cuda.Function {
		m, err := s.ModuleLoad(builtinFatbin())
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.ModuleGetFunction(m, cuda.KernelVectorAdd)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// Interleaved creation: each switch back to a device must replay
	// onto that device, not whichever was current last.
	mustDev(0)
	r[0].fn = loadFn()
	r[0].a, _ = s.Malloc(size)
	st0, err := s.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	r[0].st = st0

	mustDev(1)
	r[1].fn = loadFn()
	r[1].a, _ = s.Malloc(size)
	ev1, err := s.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	r[1].ev = ev1

	mustDev(0)
	r[0].b, _ = s.Malloc(size)
	r[0].out, _ = s.Malloc(size)
	ev0, err := s.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	r[0].ev = ev0

	mustDev(1)
	r[1].b, _ = s.Malloc(size)
	r[1].out, _ = s.Malloc(size)
	st1, err := s.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	r[1].st = st1

	upload := func() {
		for d := 0; d < 2; d++ {
			mustDev(d)
			r[d].hostA = twoDevInput(d, 0)
			r[d].hostB = twoDevInput(d, 1)
			if err := s.MemcpyHtoD(r[d].a, r[d].hostA); err != nil {
				t.Fatalf("dev %d upload a: %v", d, err)
			}
			if err := s.MemcpyHtoD(r[d].b, r[d].hostB); err != nil {
				t.Fatalf("dev %d upload b: %v", d, err)
			}
		}
	}
	upload()

	if o.checkpoint {
		for d := 0; d < 2; d++ {
			mustDev(d)
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("dev %d checkpoint: %v", d, err)
			}
		}
	}
	// Leave device 1 current so recovery must also restore a non-zero
	// final device selection.
	mustDev(1)

	if o.mid != nil {
		o.mid()
	}
	if o.reupload {
		upload()
		mustDev(1)
	}

	var out []byte
	for d := 0; d < 2; d++ {
		mustDev(d)
		args := cuda.NewArgBuffer().Ptr(r[d].a).Ptr(r[d].b).Ptr(r[d].out).I32(twoDevN).Bytes()
		grid := gpu.Dim3{X: 1, Y: 1, Z: 1}
		block := gpu.Dim3{X: twoDevN, Y: 1, Z: 1}
		if err := s.LaunchKernel(r[d].fn, grid, block, 0, r[d].st, args); err != nil {
			t.Fatalf("dev %d launch: %v", d, err)
		}
		if err := s.EventRecord(r[d].ev, r[d].st); err != nil {
			t.Fatalf("dev %d event record: %v", d, err)
		}
		if err := s.StreamSynchronize(r[d].st); err != nil {
			t.Fatalf("dev %d stream sync: %v", d, err)
		}
		got, err := s.MemcpyDtoH(r[d].out, size)
		if err != nil {
			t.Fatalf("dev %d readback: %v", d, err)
		}
		// Each device's output must be its own inputs' sum — catches
		// replay that collapsed both devices onto one arena even when
		// the concatenated digest is compared against a baseline that
		// has the same bug.
		for i := 0; i < twoDevN; i++ {
			wa := math.Float32frombits(binary.LittleEndian.Uint32(r[d].hostA[i*4:]))
			wb := math.Float32frombits(binary.LittleEndian.Uint32(r[d].hostB[i*4:]))
			gv := math.Float32frombits(binary.LittleEndian.Uint32(got[i*4:]))
			if gv != wa+wb {
				t.Fatalf("dev %d out[%d] = %g, want %g", d, i, gv, wa+wb)
			}
		}
		out = append(out, got...)
	}
	return out
}

// requireBothDevicesPopulated asserts the live server runtime holds
// allocations on both simulated GPUs — a replay that rebuilt
// everything on one device passes value checks only by accident, this
// does not.
func requireBothDevicesPopulated(t *testing.T, e *sessEnv) {
	t.Helper()
	e.mu.Lock()
	rt := e.rt
	e.mu.Unlock()
	for d := 0; d < 2; d++ {
		dev, err := rt.Device(d)
		if err != nil {
			t.Fatalf("Device(%d): %v", d, err)
		}
		if n := dev.LiveAllocations(); n < 3 {
			t.Fatalf("device %d holds %d live allocations, want >= 3 (a, b, out)", d, n)
		}
	}
}

func TestSessionTwoDeviceBitIdenticalAcrossRestart(t *testing.T) {
	// Fault-free baseline.
	e1 := newSessEnvMulti(t, t.TempDir(), 2)
	s1 := newTestSession(t, e1)
	want := twoDevWorkload(t, s1, twoDevOpts{checkpoint: true})

	// Same workload with a full server restart between the per-device
	// checkpoints and the launches: replay must restore each device's
	// checkpoint under its own SetDevice bracket.
	e2 := newSessEnvMulti(t, t.TempDir(), 2)
	s2 := newTestSession(t, e2)
	got := twoDevWorkload(t, s2, twoDevOpts{checkpoint: true, mid: e2.restart})

	if !bytes.Equal(got, want) {
		t.Fatal("two-device result differs from fault-free run after mid-workload restart")
	}
	requireBothDevicesPopulated(t, e2)
	st := s2.SessionStats()
	if st.Replays < 1 || st.Restores < 1 {
		t.Fatalf("recovery not observable in stats: %+v", st)
	}
}

func TestSessionTwoDeviceFailoverToFreshServer(t *testing.T) {
	// Baseline on a single healthy server.
	eb := newSessEnvMulti(t, "", 2)
	sb := newTestSession(t, eb)
	want := twoDevWorkload(t, sb, twoDevOpts{})

	// Failover: the primary dies without checkpoints, the session's
	// redial lands on a cold standby with two empty devices. Replay
	// rebuilds structure per device; the app re-uploads inputs.
	primary := newSessEnvMulti(t, "", 2)
	standby := newSessEnvMulti(t, "", 2)
	var tgt atomic.Pointer[sessEnv]
	tgt.Store(primary)
	s, err := NewSession(SessionOptions{
		Options: Options{Platform: guest.NativeRust()},
		Redial: func() (io.ReadWriteCloser, error) {
			return tgt.Load().redial()
		},
		Seed:  1,
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(func() { s.Close() })

	got := twoDevWorkload(t, s, twoDevOpts{
		mid: func() {
			primary.kill(true)
			tgt.Store(standby)
		},
		reupload: true,
	})
	if !bytes.Equal(got, want) {
		t.Fatal("two-device result differs after failover to a fresh server")
	}
	requireBothDevicesPopulated(t, standby)
	if st := s.SessionStats(); st.Replays < 1 {
		t.Fatalf("failover did not replay: %+v", st)
	}
}

func TestSessionTwoDeviceMigrateBitIdentical(t *testing.T) {
	eb := newSessEnvMulti(t, "", 2)
	sb := newTestSession(t, eb)
	want := twoDevWorkload(t, sb, twoDevOpts{})

	// Live-migrate between upload and launch: staging must rebuild
	// modules and allocations on the right target devices and ship
	// each chunk under the owning device's bracket.
	src := newSessEnvMulti(t, "", 2)
	dst := newSessEnvMulti(t, "", 2)
	s := newTestSession(t, src)
	var rep *MigrateReport
	got := twoDevWorkload(t, s, twoDevOpts{
		mid: func() {
			r, err := s.MigrateVia("standby", dst.redial)
			if err != nil {
				t.Fatalf("MigrateVia: %v", err)
			}
			rep = r
		},
	})
	if !bytes.Equal(got, want) {
		t.Fatal("two-device result differs after live migration")
	}
	requireBothDevicesPopulated(t, dst)
	if rep == nil || rep.FullBytes == 0 {
		t.Fatalf("migration report = %+v, want non-empty state shipped", rep)
	}
	if st := s.SessionStats(); st.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", st.Migrations)
	}
}

// TestSessionTwoDeviceBatchedMigrate runs the same migration with
// session batching on: the quiesce must flush queued launches before
// capture, and staged handles must keep their device affinity through
// the cutover swap.
func TestSessionTwoDeviceBatchedMigrate(t *testing.T) {
	eb := newSessEnvMulti(t, "", 2)
	sb := newBatchSession(t, eb, 8, nil)
	want := twoDevWorkload(t, sb, twoDevOpts{})

	src := newSessEnvMulti(t, "", 2)
	dst := newSessEnvMulti(t, "", 2)
	s := newBatchSession(t, src, 8, nil)
	got := twoDevWorkload(t, s, twoDevOpts{
		mid: func() {
			if _, err := s.MigrateVia("standby", dst.redial); err != nil {
				t.Fatalf("MigrateVia: %v", err)
			}
		},
	})
	if !bytes.Equal(got, want) {
		t.Fatal("batched two-device result differs after live migration")
	}
	requireBothDevicesPopulated(t, dst)
}

// TestSessionBatchEnqueueZeroAlloc pins the zero-allocation guarantee
// on the session's BATCH_EXEC enqueue path under a decode-loop shape:
// thousands of tiny launches reusing the same argument buffer. Once
// the queue and arg arena have reached their high-water mark, an
// enqueue that does not trigger a flush must not allocate. The same
// launch is then pinned on the other paths it can take, counting the
// client and the server's side of the pipe together: unbatched it
// allocates nothing from the session down to the kernel, a flush of
// 32 allocates only the three vectors that carry its entries and
// statuses, and the runtime's own launch nothing.
func TestSessionBatchEnqueueZeroAlloc(t *testing.T) {
	e := newSessEnv(t, "")
	const batch = 256
	s := newBatchSession(t, e, batch, nil)

	m, err := s.ModuleLoad(builtinFatbin())
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.ModuleGetFunction(m, cuda.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	a, _ := s.Malloc(n * 4)
	b, _ := s.Malloc(n * 4)
	out, _ := s.Malloc(n * 4)
	if err := s.MemcpyHtoD(a, make([]byte, n*4)); err != nil {
		t.Fatal(err)
	}
	if err := s.MemcpyHtoD(b, make([]byte, n*4)); err != nil {
		t.Fatal(err)
	}

	args := cuda.NewArgBuffer().Ptr(a).Ptr(b).Ptr(out).I32(n).Bytes()
	grid := gpu.Dim3{X: 1, Y: 1, Z: 1}
	block := gpu.Dim3{X: n, Y: 1, Z: 1}
	launch := func() {
		if err := s.LaunchKernel(f, grid, block, 0, 0, args); err != nil {
			t.Fatalf("launch: %v", err)
		}
	}

	// Warm to the high-water mark: two full batches grow the queue
	// slots, their payload buffers, and the flush-side arg arena.
	for i := 0; i < 2*batch; i++ {
		launch()
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// 1 warm-up + 100 measured enqueues stay below the batch
	// threshold, so none of them flushes mid-measurement.
	allocs := testing.AllocsPerRun(100, launch)
	if allocs != 0 {
		t.Fatalf("batched launch enqueue allocates %.1f/op, want 0", allocs)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	flush32 := func() {
		for i := 0; i < 32; i++ {
			launch()
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(20, flush32); allocs > 4 {
		t.Errorf("32 launches and their flush allocate %.1f times, want at most 4", allocs)
	}
	if err := s.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}

	// The same launch unbatched, on the same server: the session has
	// the module's parameter metadata, so the pointers are rewritten.
	s = newBatchSession(t, e, 0, nil)
	if m, err = s.ModuleLoad(builtinFatbin()); err != nil {
		t.Fatal(err)
	}
	if f, err = s.ModuleGetFunction(m, cuda.KernelVectorAdd); err != nil {
		t.Fatal(err)
	}
	a, _ = s.Malloc(n * 4)
	b, _ = s.Malloc(n * 4)
	out, _ = s.Malloc(n * 4)
	args = cuda.NewArgBuffer().Ptr(a).Ptr(b).Ptr(out).I32(n).Bytes()
	if allocs := testing.AllocsPerRun(100, launch); allocs != 0 {
		t.Errorf("unbatched launch allocates %.1f/op between session and kernel, want 0", allocs)
	}

	rm, _, err := e.rt.ModuleLoad(builtinFatbin())
	if err != nil {
		t.Fatal(err)
	}
	rf, _, err := e.rt.ModuleGetFunction(rm, cuda.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	var ptr [3]gpu.Ptr
	for i := range ptr {
		if ptr[i], _, err = e.rt.Malloc(n * 4); err != nil {
			t.Fatal(err)
		}
	}
	rargs := cuda.NewArgBuffer().Ptr(ptr[0]).Ptr(ptr[1]).Ptr(ptr[2]).I32(n).Bytes()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.rt.LaunchKernel(rf, grid, block, 0, 0, rargs); err != nil {
			t.Fatalf("runtime launch: %v", err)
		}
	}); allocs != 0 {
		t.Errorf("Runtime.LaunchKernel allocates %.1f/op, want 0", allocs)
	}
}
