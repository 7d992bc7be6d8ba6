package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"cricket/internal/cricket"
	"cricket/internal/cubin"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
)

func newVG(t testing.TB, p guest.Platform) (*Cluster, *VirtualGPU) {
	t.Helper()
	cl := NewCluster()
	vg, err := cl.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		vg.Close()
		cl.Close()
	})
	return cl, vg
}

func fatbin() []byte {
	var fb cubin.FatBinary
	fb.AddImage(cuda.BuiltinImage(80), true)
	return fb.Encode()
}

func TestClusterConnectAndQuery(t *testing.T) {
	_, vg := newVG(t, guest.RustyHermit())
	n, err := vg.DeviceCount()
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	prop, err := vg.DeviceProperties(0)
	if err != nil || prop.Name != gpu.SpecA100.Name {
		t.Fatalf("prop=%+v err=%v", prop, err)
	}
	if vg.Platform().Name != "Hermit" {
		t.Fatalf("platform = %s", vg.Platform().Name)
	}
}

func TestBufferLifecycle(t *testing.T) {
	_, vg := newVG(t, guest.NativeRust())
	b, err := vg.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if b.Ptr() == 0 || b.Size() != 1024 {
		t.Fatalf("ptr=%#x size=%d", uint64(b.Ptr()), b.Size())
	}
	data := bytes.Repeat([]byte{0x5a}, 1024)
	if err := b.Write(data); err != nil {
		t.Fatal(err)
	}
	got, err := b.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Partial I/O.
	if err := b.WriteAt([]byte{1, 2, 3}, 100); err != nil {
		t.Fatal(err)
	}
	part, err := b.ReadAt(100, 3)
	if err != nil || !bytes.Equal(part, []byte{1, 2, 3}) {
		t.Fatalf("part=%v err=%v", part, err)
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if vg.LiveBuffers() != 0 {
		t.Fatal("buffer still tracked")
	}
}

func TestDoubleFreeCaughtLocally(t *testing.T) {
	cl, vg := newVG(t, guest.NativeRust())
	b, err := vg.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	calls0 := cl.Cricket.Stats().Calls
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	callsAfterFree := cl.Cricket.Stats().Calls
	if callsAfterFree != calls0+1 {
		t.Fatalf("free made %d calls", callsAfterFree-calls0)
	}
	// Double free: rejected client-side, no RPC issued.
	if err := b.Free(); !errors.Is(err, ErrFreed) {
		t.Fatalf("double free: %v", err)
	}
	if got := cl.Cricket.Stats().Calls; got != callsAfterFree {
		t.Fatal("double free reached the server")
	}
}

func TestUseAfterFreeCaughtLocally(t *testing.T) {
	_, vg := newVG(t, guest.NativeRust())
	b, _ := vg.Alloc(64)
	b.Free()
	if err := b.Write([]byte{1}); !errors.Is(err, ErrFreed) {
		t.Fatalf("write after free: %v", err)
	}
	if _, err := b.Read(); !errors.Is(err, ErrFreed) {
		t.Fatalf("read after free: %v", err)
	}
	if err := b.Memset(0); !errors.Is(err, ErrFreed) {
		t.Fatalf("memset after free: %v", err)
	}
	if b.Ptr() != 0 {
		t.Fatal("freed buffer still exposes a pointer")
	}
}

func TestBoundsChecked(t *testing.T) {
	_, vg := newVG(t, guest.NativeRust())
	b, _ := vg.Alloc(100)
	if err := b.Write(make([]byte, 101)); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("oversized write: %v", err)
	}
	if _, err := b.ReadAt(90, 20); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("oversized read: %v", err)
	}
	if err := b.WriteAt([]byte{1}, 100); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("write at end: %v", err)
	}
}

func TestCloseFreesLeakedBuffers(t *testing.T) {
	cl := NewCluster()
	defer cl.Close()
	vg, err := cl.Connect(guest.NativeRust())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := vg.Alloc(4096); err != nil {
			t.Fatal(err)
		}
	}
	dev, _ := cl.Runtime.Device(0)
	if dev.LiveAllocations() != 5 {
		t.Fatalf("live = %d", dev.LiveAllocations())
	}
	if err := vg.Close(); err != nil {
		t.Fatal(err)
	}
	if dev.LiveAllocations() != 0 {
		t.Fatalf("leaked %d allocations after Close", dev.LiveAllocations())
	}
	// Everything errors after close.
	if _, err := vg.Alloc(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("alloc after close: %v", err)
	}
	if _, err := vg.DeviceCount(); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: %v", err)
	}
	if err := vg.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestModuleAndLaunchThroughFacade(t *testing.T) {
	_, vg := newVG(t, guest.Unikraft())
	mod, err := vg.LoadModule(fatbin())
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.Function(cuda.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	// Cached lookup returns the same handle without an extra RPC.
	f2, err := mod.Function(cuda.KernelVectorAdd)
	if err != nil || f2 != f {
		t.Fatalf("cache broken: %v %v", f2, err)
	}

	const n = 128
	a, _ := vg.Alloc(n * 4)
	b, _ := vg.Alloc(n * 4)
	c, _ := vg.Alloc(n * 4)
	buf := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(float32(i)))
	}
	if err := a.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(buf); err != nil {
		t.Fatal(err)
	}
	args := cuda.NewArgBuffer().Ptr(a.Ptr()).Ptr(b.Ptr()).Ptr(c.Ptr()).I32(n).Bytes()
	if err := vg.Launch(f, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 128, Y: 1, Z: 1}, 0, args); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := math.Float32frombits(binary.LittleEndian.Uint32(got[i*4:]))
		if v != float32(2*i) {
			t.Fatalf("c[%d] = %g", i, v)
		}
	}
	if err := vg.Synchronize(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRestoreThroughFacade(t *testing.T) {
	_, vg := newVG(t, guest.NativeRust())
	b, _ := vg.Alloc(32)
	if err := b.Write(bytes.Repeat([]byte{7}, 32)); err != nil {
		t.Fatal(err)
	}
	if err := vg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(bytes.Repeat([]byte{9}, 32)); err != nil {
		t.Fatal(err)
	}
	if err := vg.Restore(); err != nil {
		t.Fatal(err)
	}
	got, _ := b.Read()
	if got[0] != 7 {
		t.Fatalf("restored byte = %d", got[0])
	}
}

func TestSchedulerSeesClients(t *testing.T) {
	cl := NewCluster()
	defer cl.Close()
	vg1, err := cl.Connect(guest.RustyHermit())
	if err != nil {
		t.Fatal(err)
	}
	vg2, err := cl.Connect(guest.Unikraft())
	if err != nil {
		t.Fatal(err)
	}
	clients := cl.Cricket.Scheduler().Clients()
	if len(clients) != 2 {
		t.Fatalf("clients = %+v", clients)
	}
	if vg1.ID() == vg2.ID() {
		t.Fatal("duplicate client ids")
	}
	vg1.Close()
	if len(cl.Cricket.Scheduler().Clients()) != 1 {
		t.Fatal("detach missing")
	}
	vg2.Close()
}

func TestConnectAfterClose(t *testing.T) {
	cl := NewCluster()
	cl.Close()
	if _, err := cl.Connect(guest.NativeRust()); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	if _, err := cl.ConnectSession(guest.NativeRust(), cricket.Options{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("session err = %v", err)
	}
}

// A session-backed VirtualGPU that outlives its cluster must fail
// fast: the pipe cannot come back, so Close may not sit in reconnect
// backoff once per leaked buffer.
func TestSessionVGFailsFastAfterClusterClose(t *testing.T) {
	cl := NewCluster()
	vg, err := cl.ConnectSession(guest.NativeRust(), cricket.Options{Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := vg.Alloc(64); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	start := time.Now()
	if err := vg.Close(); !errors.Is(err, cricket.ErrGiveUp) {
		t.Fatalf("Close after cluster close = %v, want ErrGiveUp", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v backing off against a closed cluster", d)
	}
}

func TestTransferOptionsRespected(t *testing.T) {
	cl := NewCluster()
	defer cl.Close()
	// Parallel sockets demand the C platform (RPC-Lib limitation).
	_, err := cl.ConnectOpts(guest.RustyHermit(), cricket.Options{Transfer: cricket.TransferParallelSockets, Sockets: 4})
	if !errors.Is(err, cricket.ErrTransferUnsupported) {
		t.Fatalf("err = %v", err)
	}
	vg, err := cl.ConnectOpts(guest.NativeC(), cricket.Options{Transfer: cricket.TransferParallelSockets, Sockets: 4})
	if err != nil {
		t.Fatal(err)
	}
	if vg.Raw().Transfer() != cricket.TransferParallelSockets {
		t.Fatal("transfer option lost")
	}
	vg.Close()
}

// Property: any interleaving of alloc/free keeps client-side tracking
// and server-side allocation counts consistent, and no double free
// ever reaches the server.
func TestQuickAllocFreeConsistency(t *testing.T) {
	cl := NewCluster()
	defer cl.Close()
	vg, err := cl.Connect(guest.NativeRust())
	if err != nil {
		t.Fatal(err)
	}
	defer vg.Close()
	dev, _ := cl.Runtime.Device(0)
	base := dev.LiveAllocations()

	f := func(ops []uint8) bool {
		var live []*Buffer
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				b, err := vg.Alloc(uint64(op)*16 + 1)
				if err != nil {
					return false
				}
				live = append(live, b)
			} else {
				i := int(op) % len(live)
				if err := live[i].Free(); err != nil {
					return false
				}
				// A second free must fail locally.
				if err := live[i].Free(); !errors.Is(err, ErrFreed) {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		if vg.LiveBuffers() != len(live) {
			return false
		}
		if dev.LiveAllocations()-base != len(live) {
			return false
		}
		for _, b := range live {
			if err := b.Free(); err != nil {
				return false
			}
		}
		return dev.LiveAllocations() == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
