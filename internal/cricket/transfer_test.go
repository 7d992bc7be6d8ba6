package cricket

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/netsim"
)

// serveData serves one raw data-channel connection and reports the
// server side's return.
func serveData(t *testing.T, e *xportEnv) (conn net.Conn, served <-chan error) {
	t.Helper()
	c, s := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- e.srv.ServeDataConn(s)
		s.Close()
	}()
	t.Cleanup(func() { c.Close() })
	return c, done
}

// frameHeader encodes a data-channel frame header.
func frameHeader(op byte, ptr gpu.Ptr, n uint64) []byte {
	var h [21]byte
	binary.BigEndian.PutUint32(h[0:], dataMagic)
	h[4] = op
	binary.BigEndian.PutUint64(h[5:], uint64(ptr))
	binary.BigEndian.PutUint64(h[13:], n)
	return h[:]
}

// roundTrip writes a pattern through dc and reads it back.
func roundTrip(t *testing.T, dc *dataChannel, p gpu.Ptr, seed byte) {
	t.Helper()
	want := pattern(4096, seed)
	if err := dc.write(p, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := dc.read(p, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data-channel round trip corrupted")
	}
}

// A header claiming a 1 GiB write to an unmapped pointer sizes no
// server buffer: the refused payload is discarded as it streams in,
// and another connection keeps working throughout.
func TestForgedDataHeaderSizesNothing(t *testing.T) {
	e := newXportEnv(t)
	p, err := connectX(t, e, TransferRPCArgs).Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	good, err := e.dataDial()
	if err != nil {
		t.Fatal(err)
	}
	gdc := &dataChannel{conn: good}
	roundTrip(t, gdc, p, 1)

	forged, served := serveData(t, e)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := forged.Write(frameHeader(dataOpWrite, 0x10, maxDataFrame)); err != nil {
		t.Fatal(err)
	}
	if _, err := forged.Write(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, gdc, p, 2)
	forged.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("forged connection never finished")
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a forged 1 GiB header allocated %d bytes on the server, want < 1 MiB", grew)
	}
	roundTrip(t, gdc, p, 3)
}

// A steady-state 2-socket transfer — a 64 KiB write plus a read into
// the caller's buffer — allocates nothing on either side: the client's
// carriers are long-lived goroutines fed over channels, and the server
// moves frames straight between the socket and pinned device memory.
func TestSocketBulkPathZeroAllocs(t *testing.T) {
	h := newParallelHarness(t, 2)
	c := h.Client
	const n = 64 << 10
	p, err := c.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(n, 0x5A)
	dst := make([]byte, n)
	if err := c.MemcpyHtoD(p, data); err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyDtoHInto(p, dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(32, func() {
		if err := c.MemcpyHtoD(p, data); err != nil {
			panic(err)
		}
		if err := c.MemcpyDtoHInto(p, dst); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("socket bulk write+read allocates %.1f times per op, want 0", allocs)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("round trip corrupted")
	}
}

// stallWrite opens a data connection, sends a write header for
// [p, p+n) and part of its payload, and stalls.
func stallWrite(t *testing.T, e *xportEnv, p gpu.Ptr, n uint64) (conn net.Conn, served <-chan error) {
	t.Helper()
	conn, served = serveData(t, e)
	if _, err := conn.Write(frameHeader(dataOpWrite, p, n)); err != nil {
		t.Fatal(err)
	}
	// net.Pipe hands bytes over synchronously: once this returns, the
	// server is reading the payload into its pinned view.
	if _, err := conn.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	return conn, served
}

// within runs fn and fails the test unless it returns nil within a few
// seconds.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked behind a stalled data client", what)
	}
}

// memsetBatch runs one Memset of [p, p+n) as a BATCH_EXEC.
func memsetBatch(c *Client, p gpu.Ptr, v byte, n uint64) error {
	st, err := c.BatchExec([]BatchEntry{{Op: BatchOpMemset, Handle: uint64(p), Value: uint32(v), N: n}})
	if err == nil && st[0] != 0 {
		err = fmt.Errorf("batched Memset: status %d", st[0])
	}
	return err
}

// A data client that sends a write header and stalls before the
// payload holds a pin on that range only: ops on another allocation
// run, an op on the pinned range waits, another tenant's ops run while
// it waits (so the wait holds no runtime-wide lock), and closing the
// stalled connection releases the pin.
func TestStalledDataClientBlocksOnlyItsRange(t *testing.T) {
	e := newXportEnv(t)
	a, b := connectX(t, e, TransferRPCArgs), connectX(t, e, TransferRPCArgs)
	const n = 64 << 10
	pa, err := a.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	other, err := a.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	stalled, served := stallWrite(t, e, pa, n)
	within(t, "write to another allocation", func() error { return a.MemcpyHtoD(other, pattern(n, 1)) })

	done := make(chan error, 1)
	go func() { done <- a.Memset(pa, 9, n) }()
	select {
	case <-done:
		t.Fatal("Memset on the pinned range did not wait for the stalled transfer")
	case <-time.After(20 * time.Millisecond):
	}
	within(t, "another tenant", func() error {
		q, err := b.Malloc(n)
		if err != nil {
			return err
		}
		if err := b.Memset(q, 7, n); err != nil {
			return err
		}
		_, err = b.MemcpyDtoH(q, n)
		return err
	})
	stalled.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("closing the stalled connection did not release its pin")
	}
	if err := <-served; err == nil {
		t.Fatal("a connection cut mid-payload served cleanly")
	}
	got, err := a.MemcpyDtoH(pa, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{9}, n)) {
		t.Fatal("Memset after the released pin did not land")
	}
}

// A stalled data client never holds up another tenant's checkpoint or
// batches: the snapshot gives up on the stalled write pin and reports
// the failure in-band, and batches run on.
func TestStalledDataClientHoldsOffNoCheckpoint(t *testing.T) {
	e := newXportEnv(t)
	a, b := connectX(t, e, TransferRPCArgs), connectX(t, e, TransferRPCArgs)
	const n = 64 << 10
	pa, err := a.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	stalled, _ := stallWrite(t, e, pa, n)
	defer stalled.Close()
	within(t, "checkpoint", func() error {
		if err := b.Checkpoint(); err != cuda.ErrorMemoryAllocation {
			return fmt.Errorf("checkpoint beside a stalled write = %v, want %v", err, cuda.ErrorMemoryAllocation)
		}
		return nil
	})
	within(t, "batch", func() error { return memsetBatch(b, pb, 3, n) })
}

// A frame that holds its pin past its limit closes its connection and
// unpins, so even a batch waiting on the pinned range, and a
// checkpoint queued behind that batch, finish.
func TestStalledDataFrameTimesOut(t *testing.T) {
	e := newXportEnv(t)
	e.srv.dataStall = 100 * time.Millisecond
	a, b := connectX(t, e, TransferRPCArgs), connectX(t, e, TransferRPCArgs)
	const n = 64 << 10
	pa, err := a.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	_, served := stallWrite(t, e, pa, n)

	pinned := make(chan error, 1)
	go func() { pinned <- memsetBatch(a, pa, 9, n) }()
	time.Sleep(20 * time.Millisecond) // let the batch take execMu and wait
	within(t, "checkpoint queued behind a waiting batch", func() error {
		// Either outcome is in-band: it succeeds once the pin goes,
		// or gives up on it if it reached the device first.
		if err := b.Checkpoint(); err != nil && err != cuda.ErrorMemoryAllocation {
			return err
		}
		return nil
	})
	within(t, "batch queued behind the checkpoint", func() error { return memsetBatch(b, pb, 3, n) })
	within(t, "batch on the pinned range", func() error { return <-pinned })
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("a timed-out frame served cleanly")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the timed-out connection was never closed")
	}
	got, err := a.MemcpyDtoH(pa, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{9}, n)) {
		t.Fatal("batched Memset after the timed-out pin did not land")
	}
}

// A FaultConn cuts a data socket in the middle of a write frame's
// payload. The device may hold a partial frame, but the session's
// retry rewrites the whole range: the bytes read back equal the
// payload and so does their digest.
func TestDataSocketCutMidFrameRetries(t *testing.T) {
	e := newXportEnv(t)
	var mu sync.Mutex
	dials := 0
	dataDial := func() (io.ReadWriteCloser, error) {
		mu.Lock()
		dials++
		cut := dials == 2 // second channel of the first set
		mu.Unlock()
		c, err := e.dataDial()
		if err != nil || !cut {
			return c, err
		}
		return netsim.NewFaultConn(c, netsim.Fault{AfterBytes: 21 + 10<<10, Kind: netsim.FaultDrop}), nil
	}
	s, err := NewSession(SessionOptions{
		Options: Options{Platform: guest.NativeC(), Transfer: TransferParallelSockets, Sockets: 2, DataDial: dataDial},
		Redial:  e.redial,
		Seed:    1,
		Sleep:   func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 256 << 10
	p, err := s.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(n, 0x6B)
	if err := s.MemcpyHtoD(p, data); err != nil {
		t.Fatal(err)
	}
	if st := s.SessionStats(); st.Reconnects == 0 {
		t.Fatal("the cut never fired: no reconnect")
	}
	got, err := s.MemcpyDtoH(p, n)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	if !bytes.Equal(got, data) || digest(got) != digest(data) {
		t.Fatalf("device bytes after retry: digest %x, want %x", digest(got), digest(data))
	}
}
