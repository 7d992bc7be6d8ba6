package cricket

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"cricket/internal/guest"
	"cricket/internal/netsim"
	"cricket/internal/tune"
)

// migrateTestSession opens a session on e with batching optionally on.
func migrateTestSession(t *testing.T, e *sessEnv, batch int) *Session {
	t.Helper()
	s, err := NewSession(SessionOptions{
		Options: Options{Platform: guest.NativeRust(), Batch: batch},
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

// A migration between two live servers must carry device memory
// bit-identically, leave the session serving on the target, and point
// later recoveries at the target too.
func TestSessionMigrateBitIdentical(t *testing.T) {
	src := newSessEnv(t, "")
	dst := newSessEnv(t, "")
	s := migrateTestSession(t, src, 0)

	// Device state to carry: a buffer with a recognizable pattern plus
	// a full matmul working set (module, function, three buffers).
	const size = 192 << 10 // 3 chunks, off-by-one-safe: not chunk-aligned below
	p, err := s.Malloc(size + 100)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, size+100)
	for i := range want {
		want[i] = byte(i*131 + i>>8)
	}
	if err := s.MemcpyHtoD(p, want); err != nil {
		t.Fatal(err)
	}
	baseline := matmulWorkload(t, s, nil)

	rep, err := s.MigrateVia("dst", dst.redial)
	if err != nil {
		t.Fatalf("MigrateVia: %v", err)
	}
	if rep.Target != "dst" || rep.Rounds < 1 {
		t.Fatalf("report = %+v, want target dst and >= 1 round", rep)
	}
	if rep.Pause <= 0 {
		t.Fatalf("Pause = %v, want > 0", rep.Pause)
	}
	if got := s.Endpoint(); got != "dst" {
		t.Fatalf("Endpoint() = %q after migration, want dst", got)
	}
	if st := s.SessionStats(); st.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", st.Migrations)
	}

	// The source must no longer be load-bearing.
	src.kill(true)

	got, err := s.MemcpyDtoH(p, size+100)
	if err != nil {
		t.Fatalf("read after migration: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("migrated buffer is not bit-identical")
	}
	after := matmulWorkload(t, s, nil)
	if !bytes.Equal(after, baseline) {
		t.Fatal("matmul after migration differs from pre-migration run")
	}

	// Recovery after the move must redial the *target* (MigrateVia
	// replaced Redial): sever the target's connections and keep going.
	dst.kill(false)
	got, err = s.MemcpyDtoH(p, size+100)
	if err != nil {
		t.Fatalf("read after post-migration reconnect: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("buffer lost across post-migration reconnect")
	}
}

// With no writes racing the pre-copy, every byte ships while the
// session is live and the stop-the-world delta is empty — the whole
// point of incremental checkpoints.
func TestSessionMigrateDeltaShipsLessThanFull(t *testing.T) {
	src := newSessEnv(t, "")
	dst := newSessEnv(t, "")
	s := migrateTestSession(t, src, 0)

	const size = 1 << 20
	p, err := s.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := s.MemcpyHtoD(p, data); err != nil {
		t.Fatal(err)
	}

	rep, err := s.MigrateVia("dst", dst.redial)
	if err != nil {
		t.Fatalf("MigrateVia: %v", err)
	}
	if rep.FullBytes < size {
		t.Fatalf("FullBytes = %d, want >= %d", rep.FullBytes, size)
	}
	if rep.PrecopyBytes < size {
		t.Fatalf("PrecopyBytes = %d, want >= %d (full pass ships everything)", rep.PrecopyBytes, size)
	}
	if rep.DeltaBytes != 0 {
		t.Fatalf("DeltaBytes = %d with an idle session, want 0", rep.DeltaBytes)
	}
	got, err := s.MemcpyDtoH(p, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("contents differ after migration")
	}
}

// A write that lands between pre-copy rounds must be re-shipped: the
// final state on the target reflects it.
func TestSessionMigrateCarriesWritesAfterCapture(t *testing.T) {
	src := newSessEnv(t, "")
	dst := newSessEnv(t, "")
	s := migrateTestSession(t, src, 0)

	const size = 256 << 10
	p, err := s.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Memset(p, 0xAA, size); err != nil {
		t.Fatal(err)
	}

	// Race a writer against the migration: it keeps overwriting a
	// window of the buffer (and eventually the final pattern) while
	// pre-copy ships chunks. Clear-before-read guarantees whichever
	// write lands after a chunk was read re-dirties it for the next
	// round or the cutover delta.
	final := make([]byte, size)
	for i := range final {
		final[i] = byte(i*13 + 5)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			_ = s.Memset(p, byte(i), 64<<10)
		}
		_ = s.MemcpyHtoD(p, final)
	}()
	if _, err := s.MigrateVia("dst", dst.redial); err != nil {
		t.Fatalf("MigrateVia: %v", err)
	}
	<-done

	src.kill(true)
	got, err := s.MemcpyDtoH(p, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, final) {
		t.Fatal("write racing the migration was lost on the target")
	}
}

// A dead target aborts the migration; the session keeps serving on
// the source, and a later retry against a healthy target succeeds.
func TestSessionMigrateAbortsToSourceOnDeadTarget(t *testing.T) {
	src := newSessEnv(t, "")
	dst := newSessEnv(t, "")
	s := migrateTestSession(t, src, 0)

	p, err := s.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 4096)
	for i := range want {
		want[i] = byte(i * 3)
	}
	if err := s.MemcpyHtoD(p, want); err != nil {
		t.Fatal(err)
	}

	dst.kill(true)
	if _, err := s.MigrateVia("dst", dst.redial); err == nil {
		t.Fatal("MigrateVia to a dead target succeeded")
	}
	if st := s.SessionStats(); st.Migrations != 0 {
		t.Fatalf("Migrations = %d after abort, want 0", st.Migrations)
	}
	// Source must be untouched and fully serving.
	got, err := s.MemcpyDtoH(p, 4096)
	if err != nil {
		t.Fatalf("read on source after abort: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("source corrupted by aborted migration")
	}

	// Retry against the healed target.
	dst.restart()
	if _, err := s.MigrateVia("dst", dst.redial); err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
	src.kill(true)
	got, err = s.MemcpyDtoH(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("contents wrong after post-abort retry migration")
	}
}

// A target connection that dies mid-pre-copy (after staging already
// succeeded) aborts back to the source without corruption — the
// mid-migration kill from the issue's acceptance criteria, at unit
// scale. netsim.FaultConn drops the staging transport partway through
// the bulk ship.
func TestSessionMigrateAbortsOnMidCopyTargetDeath(t *testing.T) {
	src := newSessEnv(t, "")
	dst := newSessEnv(t, "")
	s := migrateTestSession(t, src, 0)

	const size = 1 << 20
	p, err := s.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i * 11)
	}
	if err := s.MemcpyHtoD(p, want); err != nil {
		t.Fatal(err)
	}

	// Let the handshake and staging through, then drop the connection
	// mid-pre-copy: well past attach+staging RPCs, well short of the
	// 1 MiB bulk ship.
	faulty := func() (io.ReadWriteCloser, error) {
		conn, err := dst.redial()
		if err != nil {
			return nil, err
		}
		return netsim.NewFaultConn(conn, netsim.Fault{AfterBytes: 256 << 10, Kind: netsim.FaultDrop}), nil
	}
	if _, err := s.MigrateVia("dst", faulty); err == nil {
		t.Fatal("MigrateVia with a mid-copy target death succeeded")
	}

	got, err := s.MemcpyDtoH(p, size)
	if err != nil {
		t.Fatalf("read on source after mid-copy abort: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("source corrupted by mid-copy abort")
	}

	// The failed attempt must not wedge the migrating flag: a clean
	// retry succeeds.
	if _, err := s.MigrateVia("dst", dst.redial); err != nil {
		t.Fatalf("retry after mid-copy abort: %v", err)
	}
	src.kill(true)
	got, err = s.MemcpyDtoH(p, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("contents wrong after post-abort retry")
	}
}

// Concurrent MigrateTo calls: exactly one wins, the other reports
// ErrMigrating.
func TestSessionMigrateRejectsConcurrentMigration(t *testing.T) {
	src := newSessEnv(t, "")
	dst := newSessEnv(t, "")
	s := migrateTestSession(t, src, 0)

	const size = 2 << 20 // big enough that the first migrate is still running
	p, err := s.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Memset(p, 1, size); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.MigrateVia("dst", dst.redial)
		}(i)
	}
	wg.Wait()
	var ok, rejected int
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrMigrating):
			rejected++
		case strings.Contains(err.Error(), "already on dst"):
			// The first had finished before this one started.
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	// The two may run serially if the first finished before the second
	// started (which is then told the session is where it wants it);
	// what must never happen is both running at once (ErrMigrating is
	// the overlap signal) or any other failure.
	if ok < 1 {
		t.Fatalf("no migration succeeded (ok=%d rejected=%d)", ok, rejected)
	}
}

// Satellite: Session.Checkpoint must flush the queued BATCH_EXEC
// entries before snapshotting — a checkpoint between enqueue and
// flush would miss queued writes and restore a torn state.
func TestSessionCheckpointFlushesBatchQueue(t *testing.T) {
	dir := t.TempDir()
	e := newSessEnv(t, dir)
	s := migrateTestSession(t, e, 64) // large batch: nothing auto-flushes

	p, err := s.Malloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 8192)
	for i := range want {
		want[i] = byte(i * 17)
	}
	// Queued, not flushed: Batch=64 and only a handful of entries.
	if err := s.MemcpyHtoDAsync(p, want, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Memset(p+1024, 0x5C, 512); err != nil {
		t.Fatal(err)
	}
	copy(want[1024:1536], bytes.Repeat([]byte{0x5C}, 512))

	// Checkpoint must see both queued writes.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	e.restart()
	got, err := s.MemcpyDtoH(p, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint missed queued-but-unflushed batch entries")
	}
}

// Satellite: a checkpoint racing another connection's BATCH_EXEC must
// not snapshot between the batch's entries — the server's execMu
// makes each batch atomic against snapshots. Two halves of a buffer
// are always memset to the same value inside one batch; every
// restored snapshot must show them equal.
func TestServerCheckpointAtomicAgainstBatches(t *testing.T) {
	dir := t.TempDir()
	e := newSessEnv(t, dir)
	writer := migrateTestSession(t, e, 2) // exactly one batch per pair
	ckper := migrateTestSession(t, e, 0)

	const half = 64 << 10
	p, err := writer.Malloc(2 * half)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Memset(p, 0, 2*half); err != nil {
		t.Fatal(err)
	}
	if err := writer.Flush(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := byte(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			// Batch=2: the pair flushes as one BATCH_EXEC.
			if err := writer.Memset(p, v, half); err != nil {
				return
			}
			if err := writer.Memset(p+half, v, half); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if err := ckper.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := writer.Flush(); err != nil {
		t.Fatal(err)
	}

	// Restore the last snapshot and check the invariant. The read goes
	// through the writer: p is its virtual pointer, and its replay
	// restores the persisted snapshot.
	e.restart()
	got, err := writer.MemcpyDtoH(p, 2*half)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:half], got[half:]) {
		t.Fatal("checkpoint bisected a batch: halves differ after restore")
	}
}

// Satellite: the migration drain must not feed its quiesce latency
// into a shared tune.Window — drain traffic is excluded exactly like
// shed replies, so the window neither collapses nor records samples
// it didn't serve.
func TestSessionMigrateDrainDoesNotFeedWindow(t *testing.T) {
	src := newSessEnv(t, "")
	dst := newSessEnv(t, "")
	w := tune.NewWindow(tune.WindowConfig{Min: 1, Max: 16, Initial: 8})
	s, err := NewSession(SessionOptions{
		Options: Options{Platform: guest.NativeRust()},
		Redial:  src.redial,
		Seed:    1,
		Sleep:   func(time.Duration) {},
		Window:  w,
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()

	const size = 512 << 10
	p, err := s.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	if err := s.MemcpyHtoD(p, data); err != nil {
		t.Fatal(err)
	}
	before := w.Stats()
	if before.Samples == 0 {
		t.Fatal("warmup produced no window samples")
	}

	if _, err := s.MigrateVia("dst", dst.redial); err != nil {
		t.Fatalf("MigrateVia: %v", err)
	}

	after := w.Stats()
	if after.Samples != before.Samples {
		t.Fatalf("window samples %d -> %d: migration drain leaked into the controller", before.Samples, after.Samples)
	}
	if after.Window != before.Window {
		t.Fatalf("window %d -> %d across migration, want unchanged", before.Window, after.Window)
	}
	if after.Backoffs != before.Backoffs {
		t.Fatalf("backoffs %d -> %d across migration, want unchanged", before.Backoffs, after.Backoffs)
	}
}
