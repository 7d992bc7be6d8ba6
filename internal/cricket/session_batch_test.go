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
	"cricket/internal/netsim"
)

// newBatchSession is newTestSession with session-level batching and a
// pluggable redial wrapper (nil wrap uses the environment directly).
func newBatchSession(t *testing.T, e *sessEnv, batch int, wrap func(io.ReadWriteCloser) io.ReadWriteCloser) *Session {
	t.Helper()
	s, err := NewSession(SessionOptions{
		Options: Options{Platform: guest.NativeRust(), Batch: batch},
		Redial: func() (io.ReadWriteCloser, error) {
			conn, err := e.redial()
			if err != nil || wrap == nil {
				return conn, err
			}
			return wrap(conn), nil
		},
		Seed:  1,
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// countConn counts every byte moved in either direction, mirroring
// netsim.FaultConn's accounting so a measured offset can seed a fault
// schedule.
type countConn struct {
	io.ReadWriteCloser
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// batchedVectorAdd queues `launches` vectorAdd launches on a batched
// session and reads the result back (the readback is the sync point
// that flushes the queue). beforeFlush, if set, runs after the last
// enqueue and before the flushing readback.
func batchedVectorAdd(t *testing.T, s *Session, n, launches int, beforeFlush func()) []byte {
	t.Helper()
	m, err := s.ModuleLoad(builtinFatbin())
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.ModuleGetFunction(m, cuda.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(n * 4)
	a, _ := s.Malloc(size)
	b, _ := s.Malloc(size)
	out, _ := s.Malloc(size)
	host := make([]byte, size)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[i*4:], math.Float32bits(float32(i)*0.25))
	}
	if err := s.MemcpyHtoD(a, host); err != nil {
		t.Fatal(err)
	}
	if err := s.MemcpyHtoD(b, host); err != nil {
		t.Fatal(err)
	}
	args := cuda.NewArgBuffer().Ptr(a).Ptr(b).Ptr(out).I32(int32(n)).Bytes()
	grid := gpu.Dim3{X: 1, Y: 1, Z: 1}
	block := gpu.Dim3{X: uint32(n), Y: 1, Z: 1}
	for i := 0; i < launches; i++ {
		if err := s.LaunchKernel(f, grid, block, 0, 0, args); err != nil {
			t.Fatalf("queued launch %d: %v", i, err)
		}
	}
	if beforeFlush != nil {
		beforeFlush()
	}
	got, err := s.MemcpyDtoH(out, size)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// A netsim.FaultConn drop in the middle of the BATCH_EXEC record must
// not lose or double-execute the batch: record-marked framing means a
// half-written record never ran, so the session's retry after
// reconnect executes the whole batch exactly once, with a bit-identical
// result.
func TestSessionBatchMidBatchDropExecutesExactlyOnce(t *testing.T) {
	const n, launches = 64, 16

	// Fault-free twin: measure the bytes moved before the flush (the
	// RPC stream is deterministic, so the same offset lands inside the
	// batch record of the faulted run) and record the baseline result.
	var moved atomic.Int64
	var preFlush int64
	e1 := newSessEnv(t, "")
	s1 := newBatchSession(t, e1, 32, func(conn io.ReadWriteCloser) io.ReadWriteCloser {
		return countConn{ReadWriteCloser: conn, n: &moved}
	})
	want := batchedVectorAdd(t, s1, n, launches, func() { preFlush = moved.Load() })
	if kl := e1.server().Stats().KernelLaunches; kl != launches {
		t.Fatalf("baseline server launches = %d, want %d", kl, launches)
	}

	// Faulted run: the transport dies 64 bytes into the batch record.
	var dials atomic.Int32
	e2 := newSessEnv(t, "")
	s2 := newBatchSession(t, e2, 32, func(conn io.ReadWriteCloser) io.ReadWriteCloser {
		if dials.Add(1) > 1 {
			return conn // reconnects get a healthy transport
		}
		return netsim.NewFaultConn(conn, netsim.Fault{AfterBytes: preFlush + 64, Kind: netsim.FaultDrop})
	})
	got := batchedVectorAdd(t, s2, n, launches, nil)

	if !bytes.Equal(got, want) {
		t.Fatal("result differs from fault-free run after mid-batch drop")
	}
	if kl := e2.server().Stats().KernelLaunches; kl != launches {
		t.Fatalf("server launches = %d after retry, want exactly %d", kl, launches)
	}
	st := s2.SessionStats()
	if st.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", st.Reconnects)
	}
	if st.Replays != 0 {
		t.Fatalf("Replays = %d, want 0: the server instance never died", st.Replays)
	}
}

// A full server kill/restart while a batch is queued: the flush rides
// through replay, entries re-translate against the replayed handle
// tables, and the checkpointed inputs make the result bit-identical.
func TestSessionBatchBitIdenticalAcrossMidBatchServerRestart(t *testing.T) {
	const n, launches = 64, 16
	e1 := newSessEnv(t, t.TempDir())
	s1 := newBatchSession(t, e1, 32, nil)
	var want []byte
	{
		m, _ := s1.ModuleLoad(builtinFatbin())
		f, _ := s1.ModuleGetFunction(m, cuda.KernelVectorAdd)
		want = runCheckpointedBatch(t, s1, f, n, launches, nil)
	}

	e2 := newSessEnv(t, t.TempDir())
	s2 := newBatchSession(t, e2, 32, nil)
	m, err := s2.ModuleLoad(builtinFatbin())
	if err != nil {
		t.Fatal(err)
	}
	f, err := s2.ModuleGetFunction(m, cuda.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	got := runCheckpointedBatch(t, s2, f, n, launches, e2.restart)

	if !bytes.Equal(got, want) {
		t.Fatal("batched result differs after mid-batch server restart")
	}
	if kl := e2.server().Stats().KernelLaunches; kl != launches {
		t.Fatalf("restarted server launches = %d, want %d", kl, launches)
	}
	st := s2.SessionStats()
	if st.Replays != 1 || st.Restores != 1 {
		t.Fatalf("stats = %+v, want 1 replay with 1 restore", st)
	}
}

// runCheckpointedBatch uploads inputs, checkpoints them, queues
// `launches` launches, optionally disturbs the world, and reads back.
func runCheckpointedBatch(t *testing.T, s *Session, f cuda.Function, n, launches int, disturb func()) []byte {
	t.Helper()
	size := uint64(n * 4)
	a, _ := s.Malloc(size)
	b, _ := s.Malloc(size)
	out, _ := s.Malloc(size)
	host := make([]byte, size)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[i*4:], math.Float32bits(float32(i)*0.5))
	}
	if err := s.MemcpyHtoD(a, host); err != nil {
		t.Fatal(err)
	}
	if err := s.MemcpyHtoD(b, host); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	args := cuda.NewArgBuffer().Ptr(a).Ptr(b).Ptr(out).I32(int32(n)).Bytes()
	for i := 0; i < launches; i++ {
		err := s.LaunchKernel(f, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: uint32(n), Y: 1, Z: 1}, 0, 0, args)
		if err != nil {
			t.Fatalf("queued launch %d: %v", i, err)
		}
	}
	if disturb != nil {
		disturb()
	}
	got, err := s.MemcpyDtoH(out, size)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// A failing entry does not error at the call site; it surfaces once at
// the next sync point with the same error the unbatched call returns
// inline, then clears — CUDA's deferred async error model.
func TestSessionBatchDeferredErrorSurfacesAtSync(t *testing.T) {
	// A launch with a block volume over the device limit fails
	// server-side.
	bad := gpu.Dim3{X: 2048, Y: 1024, Z: 64}
	launchBad := func(s *Session) error {
		t.Helper()
		m, err := s.ModuleLoad(builtinFatbin())
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.ModuleGetFunction(m, cuda.KernelVectorAdd)
		if err != nil {
			t.Fatal(err)
		}
		return s.LaunchKernel(f, gpu.Dim3{X: 1, Y: 1, Z: 1}, bad, 0, 0, nil)
	}
	inline := launchBad(newBatchSession(t, newSessEnv(t, ""), 0, nil))
	if inline == nil {
		t.Fatal("unbatched launch with an oversized block succeeded")
	}

	s := newBatchSession(t, newSessEnv(t, ""), 8, nil)
	if err := launchBad(s); err != nil {
		t.Fatalf("enqueue returned inline error: %v", err)
	}
	if err := s.DeviceSynchronize(); err == nil {
		t.Fatal("sync after failed batched launch returned nil")
	} else if err.Error() != inline.Error() {
		t.Fatalf("deferred error %q, inline twin %q", err, inline)
	}
	if err := s.DeviceSynchronize(); err != nil {
		t.Fatalf("second sync repeated the error: %v", err)
	}
}
