package cricket

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/obs"
)

// poison makes a kernel launch fail (block exceeds the device limit),
// leaving the runtime's deferred async error set.
func poison(t *testing.T, c *Client) {
	t.Helper()
	mod, err := c.ModuleLoad(builtinFatbin())
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.ModuleGetFunction(mod, cuda.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	grid := gpu.Dim3{X: 1, Y: 1, Z: 1}
	block := gpu.Dim3{X: 1 << 16, Y: 1, Z: 1} // way past maxThreadsPerBlock
	err = c.LaunchKernel(f, grid, block, 0, 0, nil)
	if !errors.Is(err, cuda.ErrorLaunchOutOfResources) && !errors.Is(err, cuda.ErrorLaunchFailure) {
		t.Fatalf("poison launch: %v", err)
	}
}

// A failed launch must surface through the query procedures in-band —
// these handlers used to discard the runtime error and return stale
// values with status 0.
func TestAsyncErrorPropagatesInBand(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	poison(t, h.Client)

	if _, err := h.Client.GetDeviceCount(); err == nil {
		t.Fatal("GetDeviceCount swallowed the pending async error")
	}
	if _, err := h.Client.GetDevice(); err == nil {
		t.Fatal("GetDevice swallowed the pending async error")
	}
	if _, _, err := h.Client.MemGetInfo(); err == nil {
		t.Fatal("MemGetInfo swallowed the pending async error")
	}
	// The pending error stays until a sync point clears it...
	if err := h.Client.DeviceSynchronize(); err == nil {
		t.Fatal("DeviceSynchronize did not report the async error")
	}
	// ...after which the queries answer normally again.
	n, err := h.Client.GetDeviceCount()
	if err != nil || n != 1 {
		t.Fatalf("after sync: count=%d err=%v", n, err)
	}
	if _, _, err := h.Client.MemGetInfo(); err != nil {
		t.Fatalf("after sync: MemGetInfo: %v", err)
	}
}

func TestDeviceResetReportsAndClearsAsyncError(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	poison(t, h.Client)

	// Reset reports the pending failure one final time...
	if err := h.Client.DeviceReset(); err == nil {
		t.Fatal("DeviceReset swallowed the pending async error")
	}
	// ...and clears it along with the device state.
	if err := h.Client.DeviceReset(); err != nil {
		t.Fatalf("second DeviceReset: %v", err)
	}
	if _, err := h.Client.GetDeviceCount(); err != nil {
		t.Fatalf("after reset: %v", err)
	}
}

// MtSetTransfer must validate the socket count per method: it only
// parameterizes the parallel-socket path, and shared memory needs the
// server-side host gate.
func TestMtSetTransferValidation(t *testing.T) {
	rt := cuda.NewRuntime(nil, gpu.New(gpu.SpecA100))
	s := NewServer(rt)
	cases := []struct {
		name    string
		method  TransferMethod
		sockets int32
		want    cuda.Error
	}{
		{"rpc-args sockets=0", TransferRPCArgs, 0, cuda.Success},
		{"rpc-args sockets=-3", TransferRPCArgs, -3, cuda.Success},
		{"rdma sockets=0", TransferRDMA, 0, cuda.Success},
		{"parallel sockets=0", TransferParallelSockets, 0, cuda.ErrorInvalidValue},
		{"parallel sockets=4", TransferParallelSockets, 4, cuda.Success},
		{"shared-mem default", TransferSharedMem, 0, cuda.Success},
		{"unknown method", TransferMethod(99), 1, cuda.ErrorInvalidValue},
	}
	for _, tc := range cases {
		code, err := s.MtSetTransfer(int32(tc.method), tc.sockets)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cuda.Error(code) != tc.want {
			t.Errorf("%s: code=%d want %d", tc.name, code, int32(tc.want))
		}
	}
	s.DisableSharedMem()
	code, err := s.MtSetTransfer(int32(TransferSharedMem), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cuda.Error(code) != cuda.ErrorNotSupported {
		t.Fatalf("shared-mem after DisableSharedMem: code=%d want %d", code, int32(cuda.ErrorNotSupported))
	}
}

// A failed SetCheckpointDir must not leave the broken path installed —
// otherwise every later checkpoint fails its write-through.
func TestSetCheckpointDirNotInstalledOnFailure(t *testing.T) {
	rt := cuda.NewRuntime(nil, gpu.New(gpu.SpecA100))
	s := NewServer(rt)
	// A path under a regular file cannot be created by MkdirAll.
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(file, "ckpts")
	if err := s.SetCheckpointDir(bad); err == nil {
		t.Fatal("SetCheckpointDir succeeded on an un-creatable path")
	}
	s.mu.Lock()
	installed := s.ckpDir
	s.mu.Unlock()
	if installed != "" {
		t.Fatalf("ckpDir = %q after failed SetCheckpointDir, want empty", installed)
	}
	// In-memory checkpoints still work with persistence disabled.
	if code, err := s.CkpCheckpoint(); err != nil || code != 0 {
		t.Fatalf("checkpoint: code=%d err=%v", code, err)
	}
}

// rwConn is an in-memory io.ReadWriter for driving ServeDataConn.
type rwConn struct {
	io.Reader
	io.Writer
}

func dataFrame(op byte, ptr gpu.Ptr, n uint64, payload []byte) []byte {
	var hdr [21]byte
	binary.BigEndian.PutUint32(hdr[0:], dataMagic)
	hdr[4] = op
	binary.BigEndian.PutUint64(hdr[5:], uint64(ptr))
	binary.BigEndian.PutUint64(hdr[13:], n)
	return append(hdr[:], payload...)
}

func TestServeDataConnMalformedFrames(t *testing.T) {
	newServer := func() *Server {
		return NewServer(cuda.NewRuntime(nil, gpu.New(gpu.SpecA100)))
	}

	t.Run("bad magic", func(t *testing.T) {
		s := newServer()
		frame := dataFrame(dataOpWrite, 0, 0, nil)
		binary.BigEndian.PutUint32(frame[0:], 0xdeadbeef)
		err := s.ServeDataConn(&rwConn{bytes.NewReader(frame), io.Discard})
		if !errors.Is(err, ErrDataChannel) {
			t.Fatalf("err = %v, want ErrDataChannel", err)
		}
	})

	t.Run("bad op", func(t *testing.T) {
		s := newServer()
		err := s.ServeDataConn(&rwConn{bytes.NewReader(dataFrame(9, 0, 0, nil)), io.Discard})
		if !errors.Is(err, ErrDataChannel) {
			t.Fatalf("err = %v, want ErrDataChannel", err)
		}
	})

	t.Run("oversized payload", func(t *testing.T) {
		s := newServer()
		err := s.ServeDataConn(&rwConn{bytes.NewReader(dataFrame(dataOpWrite, 0, maxDataFrame+1, nil)), io.Discard})
		if !errors.Is(err, ErrDataChannel) {
			t.Fatalf("err = %v, want ErrDataChannel", err)
		}
	})

	t.Run("truncated header", func(t *testing.T) {
		s := newServer()
		err := s.ServeDataConn(&rwConn{bytes.NewReader(dataFrame(dataOpWrite, 0, 0, nil)[:7]), io.Discard})
		if err == nil || errors.Is(err, ErrDataChannel) {
			t.Fatalf("err = %v, want an unexpected-EOF read error", err)
		}
	})

	t.Run("clean EOF between frames", func(t *testing.T) {
		s := newServer()
		if err := s.ServeDataConn(&rwConn{bytes.NewReader(nil), io.Discard}); err != nil {
			t.Fatalf("empty stream: %v", err)
		}
	})

	t.Run("zero-length write", func(t *testing.T) {
		s := newServer()
		ptr, _, err := s.Runtime().Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		var reply bytes.Buffer
		if err := s.ServeDataConn(&rwConn{bytes.NewReader(dataFrame(dataOpWrite, ptr, 0, nil)), &reply}); err != nil {
			t.Fatalf("zero-length write: %v", err)
		}
		if got := binary.BigEndian.Uint32(reply.Bytes()); cuda.Error(got) != cuda.Success {
			t.Fatalf("status = %d, want success", got)
		}
	})

	t.Run("zero-length read", func(t *testing.T) {
		s := newServer()
		ptr, _, err := s.Runtime().Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		var reply bytes.Buffer
		if err := s.ServeDataConn(&rwConn{bytes.NewReader(dataFrame(dataOpRead, ptr, 0, nil)), &reply}); err != nil {
			t.Fatalf("zero-length read: %v", err)
		}
		if got := binary.BigEndian.Uint32(reply.Bytes()); cuda.Error(got) != cuda.Success {
			t.Fatalf("status = %d, want success", got)
		}
	})
}

// tempErr mimics the transient syscall failures (EMFILE, ECONNABORTED)
// net wraps in a Temporary net.Error.
type tempErr struct{}

func (tempErr) Error() string   { return "accept: too many open files" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

// scriptedListener replays a fixed sequence of Accept results.
type scriptedListener struct {
	script []struct {
		conn net.Conn
		err  error
	}
	i int
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	if l.i >= len(l.script) {
		return nil, errors.New("script exhausted")
	}
	r := l.script[l.i]
	l.i++
	return r.conn, r.err
}
func (l *scriptedListener) Close() error   { return nil }
func (l *scriptedListener) Addr() net.Addr { return &net.TCPAddr{} }

// ServeData must survive transient accept failures (EMFILE under
// descriptor pressure) instead of returning on the first one and
// killing the data path for every connected client.
func TestServeDataRetriesTemporaryAcceptErrors(t *testing.T) {
	s := NewServer(cuda.NewRuntime(nil, gpu.New(gpu.SpecA100)))
	served, remote := net.Pipe()
	remote.Close() // the served conn reads EOF and exits cleanly
	permanent := errors.New("listener torn down")
	l := &scriptedListener{script: []struct {
		conn net.Conn
		err  error
	}{
		{nil, tempErr{}},
		{nil, tempErr{}},
		{served, nil},
		{nil, permanent},
	}}
	if err := s.ServeData(l); !errors.Is(err, permanent) {
		t.Fatalf("ServeData = %v, want the permanent error", err)
	}
	if l.i != len(l.script) {
		t.Fatalf("accept called %d times, want %d (temporary errors must be retried)", l.i, len(l.script))
	}
}

// The socket transport's xfer must handle transfers smaller than the
// channel count (only the covering prefix of channels runs) and empty
// transfers (no ops at all) without faulting or dispatching
// out-of-range chunks.
func TestParallelXferSmallTransfers(t *testing.T) {
	mk := func(k int) (*socketTransport, []*frameSink) {
		st := &socketTransport{c: &Client{}, sockets: k}
		sinks := make([]*frameSink, k)
		for i := range sinks {
			sinks[i] = &frameSink{}
			st.channels = append(st.channels, startDataChannel(sinks[i], 0))
		}
		t.Cleanup(func() { st.Close() })
		return st, sinks
	}
	const ptr = 0x1000

	t.Run("n less than channels", func(t *testing.T) {
		st, sinks := mk(4)
		if err := st.xfer(true, ptr, make([]byte, 2)); err != nil {
			t.Fatal(err)
		}
		calls := 0
		for _, s := range sinks {
			calls += len(s.frames)
		}
		if calls != 2 {
			t.Fatalf("ops = %d, want 2", calls)
		}
		for i, s := range sinks[:2] {
			if len(s.frames) != 1 || s.ptrs[0] != ptr+uint64(i) || s.frames[0] != 1 {
				t.Fatalf("channel %d: ptrs %#x sizes %v, want one 1-byte chunk at %#x", i, s.ptrs, s.frames, ptr+i)
			}
		}
	})

	t.Run("n zero", func(t *testing.T) {
		st, sinks := mk(3)
		if err := st.xfer(true, ptr, nil); err != nil {
			t.Fatal(err)
		}
		for i, s := range sinks {
			if len(s.frames) != 0 {
				t.Errorf("channel %d: unexpected ops at %#x sizes %v", i, s.ptrs, s.frames)
			}
		}
	})

	t.Run("no channels", func(t *testing.T) {
		st, _ := mk(0)
		if err := st.xfer(true, ptr, make([]byte, 8)); err == nil {
			t.Fatal("expected an error with zero channels")
		}
	})
}

// End-to-end observability: every RPC — including each BATCH_EXEC
// entry — must yield a client histogram sample and a server span
// joined by the propagated call id.
func TestObservabilityJoinsClientAndServer(t *testing.T) {
	col := NewCollector(0)
	e := newSessEnv(t, "")
	e.server().SetObserver(col)
	s, err := NewSession(SessionOptions{
		Options: Options{Platform: guest.NativeRust(), Obs: col, Batch: 4},
		Redial:  e.redial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetDeviceCount(); err != nil {
		t.Fatal(err)
	}
	ptr, err := s.Malloc(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Free(ptr); err != nil {
		t.Fatal(err)
	}

	// Three batched entries, then a sync to flush them.
	dst, err := s.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Memset(dst, 7, 64); err != nil {
		t.Fatal(err)
	}
	if err := s.MemcpyHtoDAsync(dst, make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.StreamSynchronize(0); err != nil {
		t.Fatal(err)
	}
	if err := s.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}

	spans := col.Spans()
	serverByID := map[uint64][]obs.Span{}
	for _, sp := range spans {
		if sp.Side == obs.SideServer && sp.CallID != 0 {
			serverByID[sp.CallID] = append(serverByID[sp.CallID], sp)
		}
	}
	var clientCalls, batchEntries int
	for _, sp := range spans {
		if sp.Side != obs.SideClient || sp.Stage != obs.StageCall {
			continue
		}
		clientCalls++
		if sp.CallID == 0 {
			t.Fatalf("client span without call id: %+v", sp)
		}
		mates := serverByID[sp.CallID]
		if len(mates) == 0 {
			t.Fatalf("client span %d (%s) has no joined server span", sp.CallID, sp.Name)
		}
		if sp.Entry >= 0 {
			batchEntries++
			found := false
			for _, m := range mates {
				if m.Entry == sp.Entry && m.Proc == sp.Proc {
					found = true
				}
			}
			if !found {
				t.Fatalf("batch entry %d of call %d has no per-entry server span", sp.Entry, sp.CallID)
			}
		}
	}
	if clientCalls < 7 {
		t.Fatalf("client call spans = %d, want >= 7", clientCalls)
	}
	if batchEntries != 3 {
		t.Fatalf("batch entry spans = %d, want 3", batchEntries)
	}

	m := col.Metrics()
	procs := func(rows []obs.ProcStats) []string {
		var out []string
		for _, r := range rows {
			out = append(out, r.Proc)
		}
		sort.Strings(out)
		return out
	}
	for _, want := range []string{"CUDA_GET_DEVICE_COUNT", "CUDA_MALLOC", "CUDA_MEMSET", "CUDA_MEMCPY_HTOD"} {
		cp, sp := procs(m.Client), procs(m.Server)
		if idx := sort.SearchStrings(cp, want); idx >= len(cp) || cp[idx] != want {
			t.Fatalf("no client histogram for %s (have %v)", want, cp)
		}
		if idx := sort.SearchStrings(sp, want); idx >= len(sp) || sp[idx] != want {
			t.Fatalf("no server histogram for %s (have %v)", want, sp)
		}
	}
}

// Toggling the observer off mid-serve stops new samples without
// disturbing in-flight traffic.
func TestObserverToggleWhileServing(t *testing.T) {
	col := NewCollector(0)
	h := newHarness(t, guest.NativeRust(), Options{})
	h.Server.SetObserver(col)
	if err := h.Client.Ping(); err != nil {
		t.Fatal(err)
	}
	before := len(col.Spans())
	if before == 0 {
		t.Fatal("no server spans while observer installed")
	}
	h.Server.SetObserver(nil)
	if err := h.Client.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := len(col.Spans()); got != before {
		t.Fatalf("spans grew from %d to %d after observer removed", before, got)
	}
}

func TestSchedulerObserver(t *testing.T) {
	col := NewCollector(0)
	sched := NewScheduler(PolicyFIFO, 0)
	sched.SetObserver(col)
	if err := sched.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if err := sched.Record("a", true, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, sp := range col.Spans() {
		if sp.Stage == obs.StageSched && sp.Proc == ProcSched && sp.Sim == int64(5*time.Millisecond) {
			found = true
		}
	}
	if !found {
		t.Fatal("no scheduler span recorded")
	}
	for _, r := range col.Metrics().Server {
		if r.Proc == "SCHED" && r.Count == 1 {
			return
		}
	}
	t.Fatal("no SCHED histogram row")
}
