package cricket

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/obs"
	"cricket/internal/oncrpc"
)

// rpcCounts installs a collector on srv and returns a function that
// reports how many calls of each procedure the server has dispatched
// since: the whole-call spans (Entry -1) the dispatch trace records,
// one per RPC, whatever its batch carried.
func rpcCounts(srv *Server) func() map[uint32]int {
	col := NewCollector(1 << 16)
	srv.SetObserver(col)
	return func() map[uint32]int {
		n := map[uint32]int{}
		for _, sp := range col.Spans() {
			if sp.Side == obs.SideServer && sp.Entry == -1 {
				n[sp.Proc]++
			}
		}
		return n
	}
}

// readRun is the workload the read-riding tests run on a session:
// launches closed by a read, a proven device re-selected, launches,
// a read into a caller buffer, a read with nothing queued, and a
// memset closed by a read.
func readRun(t *testing.T, s *Session) ([]byte, Stats) {
	t.Helper()
	const n = 128
	f, args, out := launchSetup(t, s, n)
	var got []byte
	for i := 0; i < 5; i++ {
		if err := s.LaunchKernel(f, batchDims.grid, batchDims.block, 0, 0, args); err != nil {
			t.Fatal(err)
		}
	}
	b, err := s.MemcpyDtoH(out, n*4)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, b...)
	for i := 0; i < 2; i++ {
		if err := s.SetDevice(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.LaunchKernel(f, batchDims.grid, batchDims.block, 0, 0, args); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	if err := s.MemcpyDtoHInto(out+8, dst); err != nil {
		t.Fatal(err)
	}
	got = append(got, dst...)
	if err := s.MemcpyDtoHInto(out, dst); err != nil {
		t.Fatal(err)
	}
	got = append(got, dst...)
	if err := s.Memset(out, 9, 16); err != nil {
		t.Fatal(err)
	}
	if b, err = s.MemcpyDtoH(out, 32); err != nil {
		t.Fatal(err)
	}
	return append(got, b...), s.Stats()
}

// A read that closes a queue rides its flush: the batched run makes
// one BATCH_EXEC_READ per read that had work queued before it and no
// CUDA_MEMCPY_DTOH for them, re-selects the proven device inside the
// record, and still reports what its unbatched twin reports, client
// and server side, entry for entry.
func TestBatchedReadRidesFlushWithTwinStats(t *testing.T) {
	pe := newSessEnv(t, "")
	plainOut, plainStats := readRun(t, newBatchSession(t, pe, 0, nil))
	be := newSessEnv(t, "")
	s := newBatchSession(t, be, 32, nil)
	counts := rpcCounts(be.server())
	batchOut, batchStats := readRun(t, s)
	if !bytes.Equal(plainOut, batchOut) {
		t.Fatal("batched reads returned different bytes")
	}
	if plainStats != batchStats {
		t.Fatalf("client stats diverge:\n  unbatched %+v\n  batched   %+v", plainStats, batchStats)
	}
	ps, bs := pe.server().Stats(), be.server().Stats()
	if ps.Calls != bs.Calls || ps.BytesFromGPU != bs.BytesFromGPU || ps.BytesToGPU != bs.BytesToGPU || ps.KernelLaunches != bs.KernelLaunches {
		t.Fatalf("server stats diverge:\n  unbatched %+v\n  batched   %+v", ps, bs)
	}
	c := counts()
	// Three reads rode (after 5 launches, after the re-selection and a
	// launch, after the memset); the one with nothing queued did not.
	if c[ProcBatchExecRead] != 3 || c[ProcCudaMemcpyDtoh] != 1 || c[ProcBatchExec] != 0 {
		t.Fatalf("RPCs by procedure %v: want 3 BATCH_EXEC_READ, 1 CUDA_MEMCPY_DTOH, no BATCH_EXEC", c)
	}
	// The first SetDevice proves the ordinal; the second rides.
	if c[ProcCudaSetDevice] != 1 {
		t.Fatalf("%d synchronous CUDA_SET_DEVICE calls, want 1", c[ProcCudaSetDevice])
	}
}

// A launch that fails before a batched read surfaces once, at the
// read, as it would at any sync point; the next read is clean.
func TestBatchedReadSurfacesEarlierFailureOnce(t *testing.T) {
	e := newSessEnv(t, "")
	s := newBatchSession(t, e, 32, nil)
	const n = 128
	f, args, out := launchSetup(t, s, n)
	bad := gpu.Dim3{X: 2048, Y: 1024, Z: 64}
	if err := s.LaunchKernel(f, batchDims.grid, bad, 0, 0, args); err != nil {
		t.Fatalf("enqueue returned inline error: %v", err)
	}
	if err := s.LaunchKernel(f, batchDims.grid, batchDims.block, 0, 0, args); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MemcpyDtoH(out, n*4); err == nil {
		t.Fatal("read after a failed batched launch returned no error")
	}
	if err := s.LaunchKernel(f, batchDims.grid, batchDims.block, 0, 0, args); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n*4)
	if err := s.MemcpyDtoHInto(out, got); err != nil {
		t.Fatalf("second read repeated the error: %v", err)
	}
	if v := binary.LittleEndian.Uint32(got[4:]); v != 0x40000000 { // 1.0f + 1.0f
		t.Fatalf("out[1] = %#x after the good launches, want 2.0f", v)
	}
}

// A read of a pointer no allocation covers, or past its allocation's
// end, fails with its own status — the one its unbatched twin gets —
// while the entries queued before it still ran, and leaves no
// deferred error behind.
func TestBatchedReadOwnErrorKeepsOtherEntries(t *testing.T) {
	for name, at := range map[string]func(p gpu.Ptr) gpu.Ptr{
		"unowned":      func(gpu.Ptr) gpu.Ptr { return 0xdead0000 },
		"out of range": func(p gpu.Ptr) gpu.Ptr { return p + 512 - 8 },
	} {
		t.Run(name, func(t *testing.T) {
			read := func(batch int) (error, []byte) {
				s := newBatchSession(t, newSessEnv(t, ""), batch, nil)
				p, err := s.Malloc(512)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Memset(p, 7, 512); err != nil {
					t.Fatal(err)
				}
				_, rerr := s.MemcpyDtoH(at(p), 64)
				if err := s.DeviceSynchronize(); err != nil {
					t.Fatalf("sync after the failed read: %v", err)
				}
				b, err := s.MemcpyDtoH(p, 512)
				if err != nil {
					t.Fatal(err)
				}
				return rerr, b
			}
			plain, _ := read(0)
			got, contents := read(32)
			if got == nil || plain == nil || got.Error() != plain.Error() {
				t.Fatalf("batched read error %v, unbatched twin %v", got, plain)
			}
			if !bytes.Equal(contents, bytes.Repeat([]byte{7}, 512)) {
				t.Fatal("the memset queued before the failed read did not run")
			}
		})
	}
}

// BATCH_EXEC has no reply to carry read bytes: a read entry in it
// fails with cudaErrorInvalidValue, reads nothing, and the others run.
func TestReadEntryInPlainBatchIsInvalid(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	p, err := h.Client.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	sts, err := h.Client.BatchExec([]BatchEntry{
		{Op: BatchOpMemcpyDtoh, Handle: uint64(p), N: 64},
		{Op: BatchOpMemset, Handle: uint64(p), Value: 3, N: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := h.Client.Stats(); st.BytesFromDevice != 0 {
		t.Fatalf("client counted %d bytes read by a refused read", st.BytesFromDevice)
	}
	if len(sts) != 2 || cuda.Error(sts[0]) != cuda.ErrorInvalidValue || sts[1] != 0 {
		t.Fatalf("statuses %v, want [cudaErrorInvalidValue 0]", sts)
	}
	if st := h.Server.Stats(); st.BytesFromGPU != 0 {
		t.Fatalf("server counted %d bytes read by a refused read", st.BytesFromGPU)
	}
	b, err := h.Client.MemcpyDtoH(p, 64)
	if err != nil || !bytes.Equal(b, bytes.Repeat([]byte{3}, 64)) {
		t.Fatalf("memset beside the refused read: %v", err)
	}
}

// After a reconnect the session has proven no ordinal on its new
// connection: SetDevice is a synchronous call again until it has.
func TestSetDeviceSynchronousAgainAfterReconnect(t *testing.T) {
	e := newSessEnv(t, "")
	s := newBatchSession(t, e, 32, nil)
	queued := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.batchq)
	}
	setDev := func() (rpcs uint64, q int) {
		t.Helper()
		before := e.server().Stats().Calls
		if err := s.SetDevice(0); err != nil {
			t.Fatal(err)
		}
		return e.server().Stats().Calls - before, queued()
	}
	if rpcs, q := setDev(); rpcs != 1 || q != 0 {
		t.Fatalf("first SetDevice: %d calls, %d queued; want a synchronous call", rpcs, q)
	}
	if rpcs, q := setDev(); rpcs != 0 || q != 1 {
		t.Fatalf("re-selection: %d calls, %d queued; want it queued", rpcs, q)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	e.kill(false)
	if _, err := s.GetDeviceCount(); err != nil {
		t.Fatal(err)
	}
	if st := s.SessionStats(); st.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", st.Reconnects)
	}
	if rpcs, q := setDev(); rpcs != 1 || q != 0 {
		t.Fatalf("first SetDevice after reconnect: %d calls, %d queued; want a synchronous call", rpcs, q)
	}
	if rpcs, q := setDev(); rpcs != 0 || q != 1 {
		t.Fatalf("re-selection after reconnect: %d calls, %d queued; want it queued", rpcs, q)
	}
}

// The steady-state batched flush of ten launches closed by a 64-byte
// read allocates nothing, client and server together: the entries,
// the status vectors and the staging buffer are reused on both ends,
// and the read bytes decode straight into the caller's buffer.
func TestBatchedReadFlushZeroAlloc(t *testing.T) {
	e := newSessEnv(t, "")
	s := newBatchSession(t, e, 32, nil)
	f, args, out := launchSetup(t, s, 128)
	dst := make([]byte, 64)
	round := func() {
		for i := 0; i < 10; i++ {
			if err := s.LaunchKernel(f, batchDims.grid, batchDims.block, 0, 0, args); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.MemcpyDtoHInto(out, dst); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("10 launches and a read-closed flush allocate %.1f times, want 0", allocs)
	}
}

// The wire bytes of a plain BATCH_EXEC are pinned, and a batch that
// re-selects a device and closes with a read goes as BATCH_EXEC_READ:
// the same arguments under procedure 34, the statuses then the read
// bytes in the reply.
func TestBatchGoldenWire(t *testing.T) {
	e := newSessEnv(t, "")
	conn, err := e.redial()
	if err != nil {
		t.Fatal(err)
	}
	tee := &teeConn{Conn: conn.(net.Conn)}
	c, err := Connect(tee, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const ptr = 0x7f00000000
	if p, err := c.Malloc(64); err != nil || p != ptr {
		t.Fatalf("first allocation %#x, %v; the golden bytes assume %#x", p, err, uint64(ptr))
	}
	sent, _ := tee.take()
	xid := binary.BigEndian.Uint32(sent[4:])
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	record := func(xid uint32, body ...[]byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, xid)
		for _, p := range body {
			b = append(b, p...)
		}
		return append(binary.BigEndian.AppendUint32(nil, 1<<31|uint32(len(b))), b...)
	}
	// CALL, RPC version 2, the program and version, the procedure,
	// AUTH_NONE credential and verifier.
	callHead := func(proc string) []byte {
		return unhex("00000000" + "00000002" + "20000ade" + "00000001" + proc + "0000000000000000" + "0000000000000000")
	}
	// REPLY, MSG_ACCEPTED, AUTH_NONE verifier, SUCCESS.
	replyHead := unhex("00000001" + "00000000" + "0000000000000000" + "00000000")
	// op, trace id, handle, stream, n, value, grid, block, then the
	// data opaque, empty in every entry here.
	memset := unhex("00000003" + "0000000000000000" + "0000007f00000000" + "0000000000000000" + "0000000000000040" +
		"000000ab" + "000000000000000000000000" + "000000000000000000000000" + "00000000")
	setDev := unhex("00000007" + "0000000000000000" + "0000000000000000" + "0000000000000000" + "0000000000000000" +
		"00000000" + "000000000000000000000000" + "000000000000000000000000" + "00000000")
	read := unhex("00000006" + "0000000000000000" + "0000007f00000000" + "0000000000000000" + "0000000000000008" +
		"00000000" + "000000000000000000000000" + "000000000000000000000000" + "00000000")

	if _, err := c.BatchExec([]BatchEntry{{Op: BatchOpMemset, Handle: ptr, Value: 0xab, N: 64}}); err != nil {
		t.Fatal(err)
	}
	xid++
	sent, rcvd := tee.take()
	if want := record(xid, callHead("0000001e"), unhex("00000001"), memset); !bytes.Equal(sent, want) {
		t.Errorf("BATCH_EXEC call\n %x\nwant\n %x", sent, want)
	}
	if want := record(xid, replyHead, unhex("00000001"+"00000000")); !bytes.Equal(rcvd, want) {
		t.Errorf("BATCH_EXEC reply %x, want %x", rcvd, want)
	}

	dst := make([]byte, 8)
	sts, err := c.batchExec([]BatchEntry{
		{Op: BatchOpSetDevice},
		{Op: BatchOpMemcpyDtoh, Handle: ptr, N: 8},
	}, nil, dst, true)
	if err != nil || len(sts) != 2 || sts[0] != 0 || sts[1] != 0 {
		t.Fatalf("read batch: %v, %v", sts, err)
	}
	if !bytes.Equal(dst, bytes.Repeat([]byte{0xab}, 8)) {
		t.Fatalf("read bytes %x", dst)
	}
	xid++
	sent, rcvd = tee.take()
	if want := record(xid, callHead("00000022"), unhex("00000002"), setDev, read); !bytes.Equal(sent, want) {
		t.Errorf("BATCH_EXEC_READ call\n %x\nwant\n %x", sent, want)
	}
	// Two statuses, then the 8 read bytes as an opaque.
	if want := record(xid, replyHead, unhex("00000002"+"00000000"+"00000000"+"00000008"+"abababababababab")); !bytes.Equal(rcvd, want) {
		t.Errorf("BATCH_EXEC_READ reply %x, want %x", rcvd, want)
	}
}

// Only a batch's last entry may read. A BATCH_EXEC_READ whose earlier
// entries read a large allocation again and again refuses each with
// cudaErrorInvalidValue and reads nothing for them, so one record can
// never make the server hold more than one allocation's bytes for its
// reply.
func TestBatchReadsOnlyAtLastEntry(t *testing.T) {
	e := newSessEnv(t, "")
	conn, err := e.redial()
	if err != nil {
		t.Fatal(err)
	}
	rpc := oncrpc.NewClient(conn, RpcCdProg, RpcCdVers)
	defer rpc.Close()
	g := NewRpcCdVersClient(rpc)
	const size, reads = 1 << 20, 32
	r, err := g.CudaMalloc(size)
	if err != nil || r.Err != 0 {
		t.Fatalf("malloc: %v, status %d", err, r.Err)
	}
	if st, err := g.CudaMemset(r.Ptr, 5, size); err != nil || st != 0 {
		t.Fatalf("memset: %v, status %d", err, st)
	}
	entries := make([]BatchEntry, reads)
	for i := range entries {
		entries[i] = BatchEntry{Op: BatchOpMemcpyDtoh, Handle: r.Ptr, N: size}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := g.BatchExecRead(BatchArgs{Entries: entries})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Status {
		want := cuda.ErrorInvalidValue
		if i == reads-1 {
			want = 0
		}
		if cuda.Error(st) != want {
			t.Fatalf("status[%d] = %d, want %d", i, st, want)
		}
	}
	if len(res.Status) != reads || !bytes.Equal(res.Data, bytes.Repeat([]byte{5}, size)) {
		t.Fatalf("%d statuses and %d read bytes, want %d and the one closing read's %d", len(res.Status), len(res.Data), reads, size)
	}
	// The server stages the closing read and the client decodes it: a
	// few copies of one read, not one per read entry.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*size {
		t.Fatalf("a %d-read batch allocated %d MiB", reads, grew>>20)
	}
	if got := e.server().Stats().BytesFromGPU; got != size {
		t.Fatalf("server counted %d bytes read, want %d", got, size)
	}
}

// replyDropConn passes a connection through until armed. Armed, the
// next read that returns bytes (the start of the reply to the call in
// flight) cuts the connection instead: the server ran the call, and
// the client never learns how it went.
type replyDropConn struct {
	io.ReadWriteCloser
	armed *atomic.Bool
}

func (c replyDropConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	if n > 0 && c.armed.CompareAndSwap(true, false) {
		c.ReadWriteCloser.Close()
		return 0, io.ErrUnexpectedEOF
	}
	return n, err
}

// A batched session's queue never spans a device change, so a batch
// that is retried after a fault runs every entry on the device it was
// queued for. The session proves both devices of a two-GPU server,
// queues a memset on device 0 (a memory op acts on the current device;
// a launch runs on its module's), switches to device 1 and launches
// there, then reads every allocation of both devices back. Device 1
// holds one allocation more than device 0, so the device-0 memset run
// on device 1 would overwrite one of the launch's inputs. The faults:
// the server restarts behind the queued memset (replay restores both
// devices' checkpoints and re-selects the session's device before the
// retried batch), and the reply to device 1's read batch is lost after
// the server ran it (the same server runs the batch again).
func TestBatchedDeviceSwitchSurvivesFaults(t *testing.T) {
	const n = 128
	type dev struct {
		f    cuda.Function
		args []byte
		mem  []gpu.Ptr // every allocation, in allocation order
	}
	run := func(t *testing.T, restart, dropReply bool) []byte {
		var armed atomic.Bool
		e := newSessEnvMulti(t, t.TempDir(), 2)
		s := newBatchSession(t, e, 32, func(conn io.ReadWriteCloser) io.ReadWriteCloser {
			return replyDropConn{conn, &armed}
		})
		var d [2]dev
		for _, i := range []int{1, 0} { // each first selection is synchronous and proves the ordinal
			if err := s.SetDevice(i); err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				pad, err := s.Malloc(n * 4)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Memset(pad, 0x3f, n*4); err != nil {
					t.Fatal(err)
				}
				d[i].mem = append(d[i].mem, pad)
			}
			f, args, out := launchSetup(t, s, n)
			a := gpu.Ptr(binary.LittleEndian.Uint64(args))
			b := gpu.Ptr(binary.LittleEndian.Uint64(args[8:]))
			d[i] = dev{f: f, args: args, mem: append(d[i].mem, a, b, out)}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Memset(d[0].mem[2], 0x11, n*4); err != nil {
			t.Fatal(err)
		}
		if restart {
			e.restart()
		}
		if err := s.SetDevice(1); err != nil {
			t.Fatal(err)
		}
		if err := s.LaunchKernel(d[1].f, batchDims.grid, batchDims.block, 0, 0, d[1].args); err != nil {
			t.Fatal(err)
		}
		armed.Store(dropReply)
		var got []byte
		for _, i := range []int{1, 0} {
			if err := s.SetDevice(i); err != nil {
				t.Fatal(err)
			}
			for _, p := range d[i].mem {
				b, err := s.MemcpyDtoH(p, n*4)
				if err != nil {
					t.Fatalf("device %d read: %v", i, err)
				}
				got = append(got, b...)
			}
		}
		if armed.Load() {
			t.Fatal("no reply was dropped")
		}
		if st := s.SessionStats(); (restart || dropReply) && st.Reconnects == 0 {
			t.Fatalf("no reconnect: %+v", st)
		}
		return got
	}
	want := run(t, false, false)
	out1 := want[3*n*4 : 4*n*4] // vectorAdd of i and i
	for i := 0; i < n; i++ {
		if v := math.Float32frombits(binary.LittleEndian.Uint32(out1[i*4:])); v != float32(2*i) {
			t.Fatalf("fault-free device 1 out[%d] = %g, want %d", i, v, 2*i)
		}
	}
	if !bytes.Equal(want[len(want)-n*4:], bytes.Repeat([]byte{0x11}, n*4)) {
		t.Fatal("fault-free device 0 out is not the memset's")
	}
	for name, f := range map[string][2]bool{"restart": {true, false}, "lost reply": {false, true}} {
		t.Run(name, func(t *testing.T) {
			if got := run(t, f[0], f[1]); !bytes.Equal(got, want) {
				t.Fatal("device memory after the fault differs from the fault-free run")
			}
		})
	}
}

// A flush that carried a queued selection and failed for good leaves
// the server's selection unknown. The session re-selects its device
// before its next call, so an allocation made then lands on the device
// the session records for it.
func TestFailedSelectionFlushReselects(t *testing.T) {
	e := newSessEnvMulti(t, "", 2)
	s := newBatchSession(t, e, 32, nil)
	for _, i := range []int{1, 0} {
		if err := s.SetDevice(i); err != nil {
			t.Fatal(err)
		}
	}
	srv := e.server()
	srv.SetLimits(Limits{MaxInflight: 1, RetryAfter: time.Millisecond})
	srv.mu.Lock()
	srv.inflight = 1 // saturated: every governed call is shed
	srv.mu.Unlock()
	if err := s.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); !errors.Is(err, cuda.ErrorServerOverloaded) {
		t.Fatalf("flush against a saturated server: %v, want overloaded", err)
	}
	srv.mu.Lock()
	srv.inflight = 0
	srv.mu.Unlock()
	p, err := s.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	recorded := s.allocs[p].dev
	s.mu.Unlock()
	for i := 0; i < 2; i++ {
		dev, err := e.rt.Device(i)
		if err != nil {
			t.Fatal(err)
		}
		if held := dev.LiveAllocations() == 1; held != (i == recorded) {
			t.Fatalf("the allocation the session records on device %d: device %d holds %d allocations", recorded, i, dev.LiveAllocations())
		}
	}
	if recorded != 1 {
		t.Fatalf("allocation recorded on device %d, want the selected device 1", recorded)
	}
}
