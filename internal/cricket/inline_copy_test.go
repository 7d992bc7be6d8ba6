package cricket

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/oncrpc"
	"cricket/internal/xdr"
)

// TestMain runs every test of the package with the server's call
// record overwritten the moment its dispatcher returns. The server
// decodes CUDA_MEMCPY_HTOD payloads, launch parameters and BATCH_EXEC
// entries as views of that record; any handler, runtime or device that
// kept one of them past Dispatch now computes with 0xDB bytes, and the
// package's digest and read-back tests fail.
func TestMain(m *testing.M) {
	oncrpc.AfterDispatchForTest = func(rec []byte) {
		rec[0] = 0xdb
		for n := 1; n < len(rec); n *= 2 {
			copy(rec[n:], rec[:n]) // doubling: cheap under -race
		}
	}
	os.Exit(m.Run())
}

func testPattern(n, seed int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31 + i>>8 + seed)
	}
	return p
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestForgedOpaqueLengthIsGarbageArgs: a CUDA_MEMCPY_HTOD call whose
// payload is nothing but the four bytes 40 00 00 00 — "a gibibyte
// follows" — is answered GARBAGE_ARGS by the shared server without the
// gibibyte being allocated first; so is a BATCH_EXEC call that is
// nothing but a count of 1<<24 - 1 entries.
func TestForgedOpaqueLengthIsGarbageArgs(t *testing.T) {
	for _, tc := range []struct {
		name string
		proc uint32
		args []byte
	}{
		{"opaque length", ProcCudaMemcpyHtod, []byte{0, 0, 0, 0x7f, 0, 0, 0, 0, 0x40, 0, 0, 0}},
		{"batch entry count", ProcBatchExec, []byte{0x00, 0xff, 0xff, 0xff}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newSessEnv(t, "")
			conn, err := e.redial()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var call bytes.Buffer
			hdr := oncrpc.CallHeader{XID: 7, Prog: RpcCdProg, Vers: RpcCdVers, Proc: tc.proc}
			if err := hdr.MarshalXDR(xdr.NewEncoder(&call)); err != nil {
				t.Fatal(err)
			}
			call.Write(tc.args)

			rw, rr := oncrpc.NewRecordWriter(conn), oncrpc.NewRecordReader(conn)
			before := totalAlloc()
			if err := rw.WriteRecord(call.Bytes()); err != nil {
				t.Fatal(err)
			}
			rec, err := rr.ReadRecord()
			if err != nil {
				t.Fatal(err)
			}
			allocated := totalAlloc() - before
			var reply oncrpc.ReplyHeader
			if err := reply.UnmarshalXDR(xdr.NewBytesDecoder(rec)); err != nil {
				t.Fatal(err)
			}
			if reply.XID != 7 || reply.Stat != oncrpc.MsgAccepted || reply.AccStat != oncrpc.GarbageArgs {
				t.Fatalf("reply %+v, want GARBAGE_ARGS", reply)
			}
			if allocated >= 64<<10 {
				t.Fatalf("%d bytes allocated to refuse a 4-byte forged length", allocated)
			}
		})
	}
}

// teeConn records what crosses a connection in each direction.
type teeConn struct {
	net.Conn
	mu         sync.Mutex
	sent, rcvd bytes.Buffer
}

func (c *teeConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sent.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.rcvd.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *teeConn) take() (sent, rcvd []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sent, rcvd = bytes.Clone(c.sent.Bytes()), bytes.Clone(c.rcvd.Bytes())
	c.sent.Reset()
	c.rcvd.Reset()
	return sent, rcvd
}

// TestInlineCopyGoldenWire pins the bytes of a CUDA_MEMCPY_HTOD call
// and a CUDA_MEMCPY_DTOH reply, for payloads that need 0 to 3 bytes of
// padding and are large enough to travel by reference: record mark,
// RPC header, arguments, payload, padding — as the stub and the server
// put them on the connection, not as a test re-encodes them.
func TestInlineCopyGoldenWire(t *testing.T) {
	e := newSessEnv(t, "")
	conn, err := e.redial()
	if err != nil {
		t.Fatal(err)
	}
	tee := &teeConn{Conn: conn.(net.Conn)}
	rpc := oncrpc.NewClient(tee, RpcCdProg, RpcCdVers)
	defer rpc.Close()
	gen := NewRpcCdVersClient(rpc)
	res, err := gen.CudaMalloc(64 << 10)
	if err != nil || res.Err != 0 {
		t.Fatalf("malloc: %+v, %v", res, err)
	}
	const ptr = 0x7f00000000
	if res.Ptr != ptr {
		t.Fatalf("first allocation at %#x; the golden bytes assume %#x", res.Ptr, uint64(ptr))
	}
	sent, _ := tee.take()
	xid := binary.BigEndian.Uint32(sent[4:]) // of the malloc; calls count up from it

	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	record := func(xid uint32, head string, n int, tail ...[]byte) []byte {
		body := binary.BigEndian.AppendUint32(nil, xid)
		body = append(body, unhex(head)...)
		body = binary.BigEndian.AppendUint32(body, uint32(n))
		for _, p := range tail {
			body = append(body, p...)
		}
		return append(binary.BigEndian.AppendUint32(nil, 1<<31|uint32(len(body))), body...)
	}
	for k := 0; k < 4; k++ {
		n := xdr.GatherMin + k
		payload := testPattern(n, k)
		pad := make([]byte, (4-n%4)%4)

		code, err := gen.CudaMemcpyHtod(ptr, payload)
		if err != nil || code != 0 {
			t.Fatalf("htod: %d, %v", code, err)
		}
		xid++
		sent, rcvd := tee.take()
		// CALL, RPC version 2, program 0x20000ade version 1, procedure
		// 7, AUTH_NONE credential and verifier; then the device
		// pointer and the opaque's length.
		want := record(xid, "00000000"+"00000002"+"20000ade"+"00000001"+"00000007"+
			"0000000000000000"+"0000000000000000"+"0000007f00000000", n, payload, pad)
		if !bytes.Equal(sent, want) {
			t.Errorf("pad %d: CUDA_MEMCPY_HTOD call is not the golden record (%d bytes sent, %d wanted)", len(pad), len(sent), len(want))
		}
		// REPLY, MSG_ACCEPTED, AUTH_NONE verifier, SUCCESS; cudaSuccess.
		if want := record(xid, "00000001"+"00000000"+"0000000000000000"+"00000000", 0); !bytes.Equal(rcvd, want) {
			t.Errorf("pad %d: CUDA_MEMCPY_HTOD reply %x, want %x", len(pad), rcvd, want)
		}

		back, err := gen.CudaMemcpyDtoh(ptr, uint64(n))
		if err != nil || back.Err != 0 || !bytes.Equal(back.Data, payload) {
			t.Fatalf("dtoh: err %d, %v, intact %v", back.Err, err, bytes.Equal(back.Data, payload))
		}
		xid++
		sent, rcvd = tee.take()
		want = record(xid, "00000000"+"00000002"+"20000ade"+"00000001"+"00000008"+
			"0000000000000000"+"0000000000000000"+"0000007f00000000"+"00000000", n)
		if !bytes.Equal(sent, want) {
			t.Errorf("pad %d: CUDA_MEMCPY_DTOH call %x, want %x", len(pad), sent, want)
		}
		// The reply header as above, err = 0, then the opaque.
		want = record(xid, "00000001"+"00000000"+"0000000000000000"+"00000000"+"00000000", n, payload, pad)
		if !bytes.Equal(rcvd, want) {
			t.Errorf("pad %d: CUDA_MEMCPY_DTOH reply is not the golden record (%d bytes received, %d wanted)", len(pad), len(rcvd), len(want))
		}
	}
}

// TestBorrowedViewsDoNotOutliveDispatch spells out the three hazards
// of decoding opaques as views of a record buffer that TestMain
// overwrites after every dispatch and the next call reuses.
func TestBorrowedViewsDoNotOutliveDispatch(t *testing.T) {
	const n = 8192 // floats per vector
	host := func(seed int) []byte {
		b := make([]byte, n*4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(float32(i%97)+0.5*float32(seed)))
		}
		return b
	}
	run := func(t *testing.T, s *Session) []byte {
		// The module image must be the runtime's own copy — it may keep
		// what it is given — and the large record that follows lands in
		// the buffer the image arrived in.
		m, err := s.ModuleLoad(builtinFatbin())
		if err != nil {
			t.Fatal(err)
		}
		var d [3]gpu.Ptr
		for i := range d {
			if d[i], err = s.Malloc(n * 4); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.MemcpyHtoD(d[2], testPattern(n*4, 3)); err != nil { // large unrelated record
			t.Fatal(err)
		}
		f, err := s.ModuleGetFunction(m, cuda.KernelVectorAdd)
		if err != nil {
			t.Fatalf("function lookup after the record buffer was reused: %v", err)
		}
		// Batched sessions queue these as BATCH_EXEC HtoD entries, one
		// above and one below the by-reference size; unbatched ones
		// send CUDA_MEMCPY_HTOD. Either way the server's only copy is
		// the device write.
		a, b := host(1), host(2)
		if err := s.MemcpyHtoDAsync(d[0], a, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.MemcpyHtoDAsync(d[1], b[:4096], 0); err != nil {
			t.Fatal(err)
		}
		if err := s.MemcpyHtoDAsync(d[1]+4096, b[4096:], 0); err != nil {
			t.Fatal(err)
		}
		args := cuda.NewArgBuffer().Ptr(d[0]).Ptr(d[1]).Ptr(d[2]).I32(n).Bytes()
		if err := s.LaunchKernel(f, gpu.Dim3{X: n / 256, Y: 1, Z: 1}, gpu.Dim3{X: 256, Y: 1, Z: 1}, 0, 0, args); err != nil {
			t.Fatal(err)
		}
		if err := s.DeviceSynchronize(); err != nil {
			t.Fatal(err)
		}
		for i, want := range [][]byte{a, b} {
			got, err := s.MemcpyDtoH(d[i], n*4)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("input %d read back changed (err %v): the device kept a view, not a copy", i, err)
			}
		}
		sum, err := s.MemcpyDtoH(d[2], n*4)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	e := newSessEnv(t, "")
	unbatched := run(t, newTestSession(t, e))
	batched := run(t, newBatchSession(t, e, 8, nil))
	if !bytes.Equal(batched, unbatched) {
		t.Fatal("vectorAdd output differs between CU_LAUNCH_KERNEL and BATCH_EXEC")
	}
	if bytes.Equal(unbatched, testPattern(n*4, 3)) {
		t.Fatal("the launch did not run")
	}
}

// TestDtoHOutOfRangeDoesNotGrowStaging: the range is validated before
// anything is sized for it, in the handler and over the wire.
func TestDtoHOutOfRangeDoesNotGrowStaging(t *testing.T) {
	h := newHarness(t, guest.NativeRust(), Options{})
	ptr, err := h.Client.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	sc := &serverConn{Server: h.Server}
	if res, _ := sc.CudaMemcpyDtoh(uint64(ptr), 4096); res.Err != 0 || cap(sc.stage) != 4096 {
		t.Fatalf("in-range read: err %d, staging %d bytes", res.Err, cap(sc.stage))
	}
	before := totalAlloc()
	for _, bad := range [][2]uint64{{uint64(ptr), 1 << 30}, {uint64(ptr) + 4000, 97}, {0xdead0000, 8}, {uint64(ptr), 4097}} {
		res, err := sc.CudaMemcpyDtoh(bad[0], bad[1])
		if err != nil || cuda.Error(res.Err) != cuda.ErrorInvalidDevicePointer || res.Data != nil {
			t.Errorf("read of %d bytes at %#x: err %d, %v", bad[1], bad[0], res.Err, err)
		}
	}
	if cap(sc.stage) != 4096 {
		t.Errorf("staging buffer is %d bytes after refused reads", cap(sc.stage))
	}
	if _, err := h.Client.MemcpyDtoH(ptr, 64<<20); !errors.Is(err, cuda.ErrorInvalidDevicePointer) {
		t.Errorf("over the wire: %v", err)
	}
	if grew := totalAlloc() - before; grew > 256<<10 {
		t.Errorf("%d bytes allocated while refusing out-of-range reads", grew)
	}
	// A read larger than the connection keeps is served and let go.
	big, err := h.Client.Malloc(xdr.RetainMax + 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := sc.CudaMemcpyDtoh(uint64(big), xdr.RetainMax+4096); res.Err != 0 || len(res.Data) != xdr.RetainMax+4096 || cap(sc.stage) != 4096 {
		t.Errorf("oversized read: err %d, %d bytes, staging now %d bytes", res.Err, len(res.Data), cap(sc.stage))
	}
}

// TestInlineCopyAllocBudget pins what an inline copy pair allocates
// end to end — client stub, both RPC layers, server — through a
// Session over net.Pipe: the fresh slice MemcpyDtoH returns, and small
// change.
func TestInlineCopyAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name        string
		size        int
		budgetBytes float64
	}{
		{"4MiB", 4 << 20, 1.02 * (4 << 20)},
		{"4KiB", 4 << 10, 6000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSession(t, newSessEnv(t, ""))
			ptr, err := s.Malloc(uint64(tc.size))
			if err != nil {
				t.Fatal(err)
			}
			buf := testPattern(tc.size, 1)
			pair := func() {
				if err := s.MemcpyHtoD(ptr, buf); err != nil {
					t.Fatal(err)
				}
				got, err := s.MemcpyDtoH(ptr, uint64(tc.size))
				if err != nil || len(got) != tc.size || got[tc.size-1] != buf[tc.size-1] {
					t.Fatalf("read back: %d bytes, %v", len(got), err)
				}
			}
			for i := 0; i < 4; i++ {
				pair() // grow the connection's buffers
			}
			const pairs = 32
			before := totalAlloc()
			for i := 0; i < pairs; i++ {
				pair()
			}
			if per := float64(totalAlloc()-before) / pairs; per > tc.budgetBytes {
				t.Fatalf("%.0f bytes allocated per %s pair, budget %.0f", per, tc.name, tc.budgetBytes)
			}
		})
	}
}

// TestInlineCopyRetention: what a connection keeps between calls is
// bounded. After a 64 MiB pair the session is still open, and a forced
// GC finds the heap within xdr.RetainMax + 1 MiB of where it was.
func TestInlineCopyRetention(t *testing.T) {
	const size = 64 << 20
	s := newTestSession(t, newSessEnv(t, ""))
	ptr, err := s.Malloc(size) // the simulated device's memory is host memory
	if err != nil {
		t.Fatal(err)
	}
	buf := testPattern(size, 9)
	if err := s.MemcpyHtoD(ptr, buf[:4096]); err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	func() {
		if err := s.MemcpyHtoD(ptr, buf); err != nil {
			t.Fatal(err)
		}
		got, err := s.MemcpyDtoH(ptr, size)
		if err != nil || !bytes.Equal(got, buf) {
			t.Fatalf("64 MiB pair: %v", err)
		}
	}()
	if kept := int64(liveHeap()) - int64(base); kept > xdr.RetainMax+1<<20 {
		t.Fatalf("%d bytes (%.1f MiB) still live after a 64 MiB pair on an open session", kept, float64(kept)/(1<<20))
	}
	if err := s.MemcpyHtoD(ptr, buf[:4096]); err != nil {
		t.Fatalf("copy after the buffers were dropped: %v", err)
	}
	runtime.KeepAlive(buf)
}
