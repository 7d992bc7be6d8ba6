package gpu

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newA100(t testing.TB) *Device {
	t.Helper()
	return New(SpecA100)
}

func TestSpecPeakFLOPS(t *testing.T) {
	// A100 FP32 peak ≈ 19.5 TFLOPS.
	got := SpecA100.PeakFLOPS()
	if got < 19e12 || got > 20e12 {
		t.Fatalf("A100 peak FLOPS = %g", got)
	}
	if SpecT4.PeakFLOPS() > SpecA100.PeakFLOPS() {
		t.Fatal("T4 faster than A100")
	}
}

func TestMallocFreeBasic(t *testing.T) {
	d := newA100(t)
	p, dur, err := d.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if p == 0 {
		t.Fatal("null pointer from Malloc")
	}
	if dur <= 0 {
		t.Fatal("non-positive malloc time")
	}
	if uint64(p)%allocAlign != 0 {
		t.Fatalf("pointer %#x not %d-aligned", uint64(p), allocAlign)
	}
	if d.LiveAllocations() != 1 {
		t.Fatalf("live = %d", d.LiveAllocations())
	}
	if _, err := d.Free(p); err != nil {
		t.Fatal(err)
	}
	if d.LiveAllocations() != 0 {
		t.Fatalf("live = %d after free", d.LiveAllocations())
	}
}

func TestMallocZeroBytes(t *testing.T) {
	d := newA100(t)
	p1, _, err := d.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := d.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == 0 || p2 == 0 || p1 == p2 {
		t.Fatalf("zero-byte pointers %#x %#x", uint64(p1), uint64(p2))
	}
}

func TestDoubleFree(t *testing.T) {
	d := newA100(t)
	p, _, err := d.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Free(p); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free: %v", err)
	}
	// Freeing an interior pointer is also invalid.
	p2, _, _ := d.Malloc(1024)
	if _, err := d.Free(p2 + 8); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("interior free: %v", err)
	}
}

func TestOutOfMemory(t *testing.T) {
	d := New(Spec{Name: "tiny", MemBytes: 4096, MaxThreadsPerBlock: 1024, MaxGridDim: 1 << 20, MaxSharedMemPerBlock: 1 << 10, MemBandwidth: 1e9, ClockHz: 1e9, SMs: 1, CoresPerSM: 1})
	if _, _, err := d.Malloc(8192); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v", err)
	}
	// Fill then free then refill: the free list must recycle space.
	p, _, err := d.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Malloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.Free(p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Malloc(4096); err != nil {
		t.Fatalf("refill after free: %v", err)
	}
}

func TestMemInfo(t *testing.T) {
	d := newA100(t)
	free0, total := d.MemInfo()
	if total != SpecA100.MemBytes || free0 != total {
		t.Fatalf("free=%d total=%d", free0, total)
	}
	p, _, _ := d.Malloc(1 << 20)
	free1, _ := d.MemInfo()
	if free0-free1 != 1<<20 {
		t.Fatalf("free dropped by %d", free0-free1)
	}
	d.Free(p)
	free2, _ := d.MemInfo()
	if free2 != free0 {
		t.Fatalf("free not restored: %d vs %d", free2, free0)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newA100(t)
	p, _, err := d.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	if _, err := d.Write(p, src); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Read(p, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != src[i] {
			t.Fatalf("byte %d = %d", i, got[i])
		}
	}
	// Offset access within the allocation.
	got, _, err = d.Read(p+16, 4)
	if err != nil || got[0] != 16 {
		t.Fatalf("offset read: %v %v", got, err)
	}
}

func TestOutOfBoundsAccess(t *testing.T) {
	d := newA100(t)
	p, _, _ := d.Malloc(64)
	if _, err := d.Write(p, make([]byte, 65)); !errors.Is(err, ErrInvalidPtr) {
		t.Fatalf("overrun write: %v", err)
	}
	if _, _, err := d.Read(p+60, 8); !errors.Is(err, ErrInvalidPtr) {
		t.Fatalf("overrun read: %v", err)
	}
	if _, _, err := d.Read(0x1234, 4); !errors.Is(err, ErrInvalidPtr) {
		t.Fatalf("wild read: %v", err)
	}
	// Access spanning two adjacent allocations must fault even if both
	// exist.
	a, _, _ := d.Malloc(64)
	b, _, _ := d.Malloc(64)
	_ = b
	if _, _, err := d.Read(a, 128); !errors.Is(err, ErrInvalidPtr) {
		t.Fatalf("cross-allocation read: %v", err)
	}
}

func TestFreedMemoryFaults(t *testing.T) {
	d := newA100(t)
	p, _, _ := d.Malloc(64)
	d.Free(p)
	if _, _, err := d.Read(p, 4); !errors.Is(err, ErrInvalidPtr) {
		t.Fatalf("use after free: %v", err)
	}
}

func TestMemsetAndDtoD(t *testing.T) {
	d := newA100(t)
	p, _, _ := d.Malloc(128)
	q, _, _ := d.Malloc(128)
	if _, err := d.Memset(p, 0xab, 128); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CopyDtoD(q, p, 128); err != nil {
		t.Fatal(err)
	}
	got, _, _ := d.Read(q, 128)
	for i, b := range got {
		if b != 0xab {
			t.Fatalf("byte %d = %#x", i, b)
		}
	}
}

// saxpyKernel computes y[i] = a*x[i] + y[i] for the flat thread index.
func saxpyKernel(mem *Mem, cfg LaunchConfig, args *Args) error {
	xPtr, err := args.Ptr(0)
	if err != nil {
		return err
	}
	yPtr, err := args.Ptr(1)
	if err != nil {
		return err
	}
	aBits, err := args.U32(2)
	if err != nil {
		return err
	}
	a := math.Float32frombits(aBits)
	n, err := args.U32(3)
	if err != nil {
		return err
	}
	xb, err := mem.Bytes(xPtr, uint64(n)*4)
	if err != nil {
		return err
	}
	yb, err := mem.Bytes(yPtr, uint64(n)*4)
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		x := math.Float32frombits(binary.LittleEndian.Uint32(xb[i*4:]))
		y := math.Float32frombits(binary.LittleEndian.Uint32(yb[i*4:]))
		binary.LittleEndian.PutUint32(yb[i*4:], math.Float32bits(a*x+y))
	}
	return nil
}

func saxpyLayout() []ArgSlot {
	return []ArgSlot{
		{Off: 0, Size: 8, Pointer: true},
		{Off: 8, Size: 8, Pointer: true},
		{Off: 16, Size: 4},
		{Off: 20, Size: 4},
	}
}

func saxpyArgs(x, y Ptr, a float32, n uint32) []byte {
	buf := make([]byte, 24)
	binary.LittleEndian.PutUint64(buf[0:], uint64(x))
	binary.LittleEndian.PutUint64(buf[8:], uint64(y))
	binary.LittleEndian.PutUint32(buf[16:], math.Float32bits(a))
	binary.LittleEndian.PutUint32(buf[20:], n)
	return buf
}

func TestLaunchComputesCorrectly(t *testing.T) {
	d := newA100(t)
	d.RegisterKernel("saxpy", Kernel{Fn: saxpyKernel, Cost: Cost{FLOPsPerThread: 2, BytesPerThread: 12}})
	const n = 1000
	x, _, _ := d.Malloc(n * 4)
	y, _, _ := d.Malloc(n * 4)
	xs := make([]byte, n*4)
	ys := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(xs[i*4:], math.Float32bits(float32(i)))
		binary.LittleEndian.PutUint32(ys[i*4:], math.Float32bits(1))
	}
	d.Write(x, xs)
	d.Write(y, ys)
	cfg := LaunchConfig{Grid: Dim3{X: 4, Y: 1, Z: 1}, Block: Dim3{X: 256, Y: 1, Z: 1}}
	dur, err := d.Launch("saxpy", cfg, saxpyArgs(x, y, 2.0, n), saxpyLayout())
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("non-positive kernel time")
	}
	got, _, _ := d.Read(y, n*4)
	for i := 0; i < n; i++ {
		v := math.Float32frombits(binary.LittleEndian.Uint32(got[i*4:]))
		want := 2*float32(i) + 1
		if v != want {
			t.Fatalf("y[%d] = %g, want %g", i, v, want)
		}
	}
	launches, flops := d.Stats()
	if launches != 1 {
		t.Fatalf("launches = %d", launches)
	}
	if flops != 2*4*256 {
		t.Fatalf("flops = %g", flops)
	}
}

func TestLaunchValidation(t *testing.T) {
	d := newA100(t)
	d.RegisterKernel("k", Kernel{Fn: func(*Mem, LaunchConfig, *Args) error { return nil }})
	cases := []LaunchConfig{
		{Grid: Dim3{1, 1, 1}, Block: Dim3{2048, 1, 1}},                   // too many threads
		{Grid: Dim3{1, 1, 1}, Block: Dim3{0, 1, 1}},                      // empty block
		{Grid: Dim3{0, 1, 1}, Block: Dim3{32, 1, 1}},                     // empty grid
		{Grid: Dim3{1, 1, 1}, Block: Dim3{32, 1, 1}, SharedMem: 1 << 30}, // too much smem
	}
	for i, cfg := range cases {
		if _, err := d.Launch("k", cfg, nil, nil); !errors.Is(err, ErrBadLaunch) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
	if _, err := d.Launch("nope", LaunchConfig{Grid: Dim3{1, 1, 1}, Block: Dim3{1, 1, 1}}, nil, nil); !errors.Is(err, ErrUnknownKernel) {
		t.Fatalf("unknown kernel: %v", err)
	}
}

func TestLaunchBadArgBuffer(t *testing.T) {
	d := newA100(t)
	d.RegisterKernel("saxpy", Kernel{Fn: saxpyKernel})
	cfg := LaunchConfig{Grid: Dim3{1, 1, 1}, Block: Dim3{1, 1, 1}}
	// Buffer shorter than the layout demands.
	if _, err := d.Launch("saxpy", cfg, make([]byte, 8), saxpyLayout()); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("short args: %v", err)
	}
}

func TestKernelFaultPropagates(t *testing.T) {
	d := newA100(t)
	d.RegisterKernel("wild", Kernel{Fn: func(mem *Mem, cfg LaunchConfig, args *Args) error {
		_, err := mem.Bytes(0xdead, 4)
		return err
	}})
	cfg := LaunchConfig{Grid: Dim3{1, 1, 1}, Block: Dim3{1, 1, 1}}
	if _, err := d.Launch("wild", cfg, nil, nil); !errors.Is(err, ErrInvalidPtr) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateKernelPanics(t *testing.T) {
	d := newA100(t)
	d.RegisterKernel("k", Kernel{Fn: func(*Mem, LaunchConfig, *Args) error { return nil }})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.RegisterKernel("k", Kernel{Fn: func(*Mem, LaunchConfig, *Args) error { return nil }})
}

func TestExecTimeRoofline(t *testing.T) {
	d := newA100(t)
	// Compute-bound: enormous FLOPs per thread.
	tCompute := d.execTime(Cost{FLOPsPerThread: 1e6}, 1<<20)
	// Memory-bound: enormous bytes per thread.
	tMemory := d.execTime(Cost{BytesPerThread: 1e6}, 1<<20)
	if tCompute <= 0 || tMemory <= 0 {
		t.Fatal("non-positive times")
	}
	// Scaling: doubling threads roughly doubles time (minus overhead).
	t1 := d.execTime(Cost{FLOPsPerThread: 1e4}, 1<<20)
	t2 := d.execTime(Cost{FLOPsPerThread: 1e4}, 1<<21)
	r := float64(t2-time.Duration(SpecA100.LaunchOverheadNS)) / float64(t1-time.Duration(SpecA100.LaunchOverheadNS))
	if r < 1.9 || r > 2.1 {
		t.Fatalf("scaling ratio = %g", r)
	}
	// A100 is faster than T4 for the same work.
	t4 := New(SpecT4)
	if d.execTime(Cost{FLOPsPerThread: 1e4}, 1<<20) >= t4.execTime(Cost{FLOPsPerThread: 1e4}, 1<<20) {
		t.Fatal("A100 not faster than T4")
	}
}

func TestReset(t *testing.T) {
	d := newA100(t)
	p, _, _ := d.Malloc(64)
	d.Reset()
	if d.LiveAllocations() != 0 {
		t.Fatal("allocations survive reset")
	}
	if _, _, err := d.Read(p, 4); !errors.Is(err, ErrInvalidPtr) {
		t.Fatalf("read after reset: %v", err)
	}
	launches, _ := d.Stats()
	if launches != 0 {
		t.Fatal("counters survive reset")
	}
}

func TestConcurrentMallocFree(t *testing.T) {
	d := newA100(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p, _, err := d.Malloc(1024)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := d.Write(p, make([]byte, 1024)); err != nil {
					t.Error(err)
					return
				}
				if _, err := d.Free(p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d.LiveAllocations() != 0 {
		t.Fatalf("leaked %d allocations", d.LiveAllocations())
	}
}

// Property: after any sequence of mallocs and frees, accounting is
// exact and all live regions remain disjoint and accessible.
func TestQuickAllocatorInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		d := New(Spec{Name: "q", MemBytes: 1 << 20, MaxThreadsPerBlock: 1024, MaxGridDim: 1 << 20, MaxSharedMemPerBlock: 1 << 10, MemBandwidth: 1e9, ClockHz: 1e9, SMs: 1, CoresPerSM: 1})
		var live []Ptr
		var sizes []uint64
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				size := uint64(op%4096) + 1
				p, _, err := d.Malloc(size)
				if errors.Is(err, ErrOutOfMemory) {
					continue
				}
				if err != nil {
					return false
				}
				live = append(live, p)
				sizes = append(sizes, size)
			} else {
				i := int(op) % len(live)
				if _, err := d.Free(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				sizes = append(sizes[:i], sizes[i+1:]...)
			}
		}
		if d.LiveAllocations() != len(live) {
			return false
		}
		// Every live region must be fully accessible.
		for i, p := range live {
			if _, _, err := d.Read(p, sizes[i]); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMallocFree(b *testing.B) {
	d := New(SpecA100)
	for i := 0; i < b.N; i++ {
		p, _, err := d.Malloc(1 << 16)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLaunchSaxpy(b *testing.B) {
	d := New(SpecA100)
	d.RegisterKernel("saxpy", Kernel{Fn: saxpyKernel, Cost: Cost{FLOPsPerThread: 2, BytesPerThread: 12}})
	const n = 4096
	x, _, _ := d.Malloc(n * 4)
	y, _, _ := d.Malloc(n * 4)
	args := saxpyArgs(x, y, 2.0, n)
	layout := saxpyLayout()
	cfg := LaunchConfig{Grid: Dim3{X: 16, Y: 1, Z: 1}, Block: Dim3{X: 256, Y: 1, Z: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch("saxpy", cfg, args, layout); err != nil {
			b.Fatal(err)
		}
	}
}
