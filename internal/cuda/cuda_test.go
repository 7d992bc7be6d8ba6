package cuda

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"cricket/internal/cubin"
	"cricket/internal/gpu"
	"cricket/internal/netsim"
)

func newRuntime(t testing.TB) *Runtime {
	t.Helper()
	return NewRuntime(netsim.NewClock(), gpu.New(gpu.SpecA100))
}

// loadBuiltins loads the builtin image (via compressed fatbin, the
// paper's extended path) and returns the module handle.
func loadBuiltins(t testing.TB, r *Runtime) Module {
	t.Helper()
	var fb cubin.FatBinary
	fb.AddImage(BuiltinImage(80), true)
	m, _, err := r.ModuleLoad(fb.Encode())
	if err != nil {
		t.Fatalf("ModuleLoad: %v", err)
	}
	return m
}

func TestErrorCodesAndNames(t *testing.T) {
	if Success.Name() != "cudaSuccess" || ErrorMemoryAllocation.Name() != "cudaErrorMemoryAllocation" {
		t.Fatal("error names wrong")
	}
	if Code(nil) != Success {
		t.Fatal("Code(nil)")
	}
	if Code(ErrorInvalidValue) != ErrorInvalidValue {
		t.Fatal("Code(Error)")
	}
	if Code(errors.New("x")) != ErrorUnknown {
		t.Fatal("Code(other)")
	}
}

func TestGetDeviceCountAndProperties(t *testing.T) {
	r := NewRuntime(nil, gpu.New(gpu.SpecA100), gpu.New(gpu.SpecT4))
	n, _, _ := r.GetDeviceCount()
	if n != 2 {
		t.Fatalf("count = %d", n)
	}
	prop, _, err := r.GetDeviceProperties(0)
	if err != nil {
		t.Fatal(err)
	}
	if prop.Name != gpu.SpecA100.Name || prop.Major != 8 || prop.Minor != 0 || prop.MultiProcessorCount != 108 {
		t.Fatalf("prop = %+v", prop)
	}
	if _, _, err := r.GetDeviceProperties(9); !errors.Is(err, ErrorInvalidDevice) {
		t.Fatalf("bad ordinal: %v", err)
	}
}

func TestSetDevice(t *testing.T) {
	r := NewRuntime(nil, gpu.New(gpu.SpecA100), gpu.New(gpu.SpecT4))
	if _, err := r.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	cur, _, _ := r.GetDevice()
	if cur != 1 {
		t.Fatalf("current = %d", cur)
	}
	if _, err := r.SetDevice(5); !errors.Is(err, ErrorInvalidDevice) {
		t.Fatalf("err = %v", err)
	}
	if e := r.GetLastError(); e != ErrorInvalidDevice {
		t.Fatalf("last error = %v", e)
	}
	if e := r.GetLastError(); e != Success {
		t.Fatal("last error not cleared")
	}
}

// Regression: negative ordinals (cudaSetDevice(-1)) must be rejected
// with cudaErrorInvalidDevice like any other out-of-range index, and
// must leave the current selection untouched.
func TestSetDeviceRejectsNegative(t *testing.T) {
	r := NewRuntime(nil, gpu.New(gpu.SpecA100), gpu.New(gpu.SpecT4))
	if _, err := r.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, -2, 1 << 20} {
		if _, err := r.SetDevice(bad); !errors.Is(err, ErrorInvalidDevice) {
			t.Fatalf("SetDevice(%d) = %v, want ErrorInvalidDevice", bad, err)
		}
		if cur, _, _ := r.GetDevice(); cur != 1 {
			t.Fatalf("SetDevice(%d) moved current device to %d", bad, cur)
		}
	}
	if e := r.GetLastError(); e != ErrorInvalidDevice {
		t.Fatalf("last error = %v", e)
	}
}

func TestMallocFreeMemcpy(t *testing.T) {
	r := newRuntime(t)
	p, _, err := r.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 1024)
	for i := range src {
		src[i] = byte(i * 3)
	}
	if _, err := r.MemcpyHtoD(p, src); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.MemcpyDtoH(p, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != src[i] {
			t.Fatalf("byte %d", i)
		}
	}
	if _, err := r.Free(p); err != nil {
		t.Fatal(err)
	}
	// Null-pointer free is a no-op.
	if _, err := r.Free(0); err != nil {
		t.Fatal(err)
	}
	// Double free maps to the CUDA error.
	if _, err := r.Free(p); !errors.Is(err, ErrorInvalidDevicePointer) {
		t.Fatalf("double free: %v", err)
	}
}

func TestMemcpyBadPointer(t *testing.T) {
	r := newRuntime(t)
	if _, err := r.MemcpyHtoD(0xdead, []byte{1}); !errors.Is(err, ErrorInvalidDevicePointer) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := r.MemcpyDtoH(0xdead, 4); !errors.Is(err, ErrorInvalidDevicePointer) {
		t.Fatalf("err = %v", err)
	}
}

func TestMemsetAndDtoD(t *testing.T) {
	r := newRuntime(t)
	a, _, _ := r.Malloc(64)
	b, _, _ := r.Malloc(64)
	if _, err := r.Memset(a, 7, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MemcpyDtoD(b, a, 64); err != nil {
		t.Fatal(err)
	}
	got, _, _ := r.MemcpyDtoH(b, 64)
	if got[0] != 7 || got[63] != 7 {
		t.Fatalf("got %v", got[:4])
	}
}

func TestClockAccumulatesCharges(t *testing.T) {
	clock := netsim.NewClock()
	r := NewRuntime(clock, gpu.New(gpu.SpecA100))
	before := clock.Now()
	r.GetDeviceCount()
	p, _, _ := r.Malloc(1 << 20)
	r.MemcpyHtoD(p, make([]byte, 1<<20))
	if clock.Now() <= before {
		t.Fatal("clock did not advance")
	}
}

func TestStreamsAndEvents(t *testing.T) {
	r := newRuntime(t)
	s, _, _ := r.StreamCreate()
	if s == 0 {
		t.Fatal("zero stream handle")
	}
	if _, err := r.StreamSynchronize(s); err != nil {
		t.Fatal(err)
	}
	e1, _, _ := r.EventCreate()
	e2, _, _ := r.EventCreate()
	if _, err := r.EventRecord(e1, s); err != nil {
		t.Fatal(err)
	}
	// Do some chargeable work between records.
	p, _, _ := r.Malloc(8 << 20)
	r.MemcpyHtoD(p, make([]byte, 8<<20))
	if _, err := r.EventRecord(e2, s); err != nil {
		t.Fatal(err)
	}
	ms, _, err := r.EventElapsed(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 {
		t.Fatalf("elapsed = %g ms", ms)
	}
	if _, err := r.EventDestroy(e1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.EventElapsed(e1, e2); !errors.Is(err, ErrorInvalidHandle) {
		t.Fatalf("destroyed event: %v", err)
	}
	if _, err := r.StreamDestroy(s); err != nil {
		t.Fatal(err)
	}
	if _, err := r.StreamSynchronize(s); !errors.Is(err, ErrorInvalidHandle) {
		t.Fatalf("destroyed stream: %v", err)
	}
	// The default stream cannot be destroyed.
	if _, err := r.StreamDestroy(0); !errors.Is(err, ErrorInvalidHandle) {
		t.Fatalf("default stream destroy: %v", err)
	}
}

func TestEventElapsedUnrecorded(t *testing.T) {
	r := newRuntime(t)
	e1, _, _ := r.EventCreate()
	e2, _, _ := r.EventCreate()
	if _, _, err := r.EventElapsed(e1, e2); !errors.Is(err, ErrorInvalidValue) {
		t.Fatalf("err = %v", err)
	}
}

func TestModuleLoadVariants(t *testing.T) {
	r := newRuntime(t)
	img := BuiltinImage(80)
	// Bare cubin.
	m1, _, err := r.ModuleLoad(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	// Compressed bare cubin.
	if _, _, err := r.ModuleLoad(cubin.Compress(img.Encode())); err != nil {
		t.Fatal(err)
	}
	// Fatbin, compressed entry.
	var fb cubin.FatBinary
	fb.AddImage(img, true)
	if _, _, err := r.ModuleLoad(fb.Encode()); err != nil {
		t.Fatal(err)
	}
	// Garbage.
	if _, _, err := r.ModuleLoad([]byte("junk")); !errors.Is(err, ErrorInvalidImage) {
		t.Fatalf("garbage: %v", err)
	}
	// Unknown kernel name in image.
	bad := BuiltinImage(80)
	bad.Kernels[0].Name = "mysteryKernel"
	if _, _, err := r.ModuleLoad(bad.Encode()); !errors.Is(err, ErrorNoBinaryForGPU) {
		t.Fatalf("unknown kernel: %v", err)
	}
	if _, err := r.ModuleUnload(m1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ModuleUnload(m1); !errors.Is(err, ErrorInvalidHandle) {
		t.Fatalf("double unload: %v", err)
	}
}

func TestModuleGetFunctionAndLaunchVectorAdd(t *testing.T) {
	r := newRuntime(t)
	m := loadBuiltins(t, r)
	f, _, err := r.ModuleGetFunction(m, KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ModuleGetFunction(m, "nope"); !errors.Is(err, ErrorNotFound) {
		t.Fatalf("missing function: %v", err)
	}

	const n = 512
	a, _, _ := r.Malloc(n * 4)
	b, _, _ := r.Malloc(n * 4)
	c, _, _ := r.Malloc(n * 4)
	ab := make([]byte, n*4)
	bb := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(ab[i*4:], math.Float32bits(float32(i)))
		binary.LittleEndian.PutUint32(bb[i*4:], math.Float32bits(float32(2*i)))
	}
	r.MemcpyHtoD(a, ab)
	r.MemcpyHtoD(b, bb)

	args := NewArgBuffer().Ptr(a).Ptr(b).Ptr(c).I32(n).Bytes()
	dur, err := r.LaunchKernel(f, gpu.Dim3{X: 2, Y: 1, Z: 1}, gpu.Dim3{X: 256, Y: 1, Z: 1}, 0, 0, args)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("no kernel time")
	}
	got, _, _ := r.MemcpyDtoH(c, n*4)
	for i := 0; i < n; i++ {
		v := math.Float32frombits(binary.LittleEndian.Uint32(got[i*4:]))
		if v != float32(3*i) {
			t.Fatalf("c[%d] = %g", i, v)
		}
	}
}

func TestLaunchErrors(t *testing.T) {
	r := newRuntime(t)
	m := loadBuiltins(t, r)
	f, _, _ := r.ModuleGetFunction(m, KernelVectorAdd)
	// Invalid function handle.
	if _, err := r.LaunchKernel(Function(999), gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 1, Y: 1, Z: 1}, 0, 0, nil); !errors.Is(err, ErrorInvalidDeviceFunction) {
		t.Fatalf("bad function: %v", err)
	}
	// Invalid stream.
	if _, err := r.LaunchKernel(f, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 1, Y: 1, Z: 1}, 0, Stream(777), nil); !errors.Is(err, ErrorInvalidHandle) {
		t.Fatalf("bad stream: %v", err)
	}
	// Launch config over limits.
	if _, err := r.LaunchKernel(f, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 4096, Y: 1, Z: 1}, 0, 0, nil); !errors.Is(err, ErrorLaunchOutOfResources) {
		t.Fatalf("big block: %v", err)
	}
	// Wild pointer in args -> launch failure.
	args := NewArgBuffer().Ptr(0xdead).Ptr(0xbeef).Ptr(0xcafe).I32(16).Bytes()
	if _, err := r.LaunchKernel(f, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 16, Y: 1, Z: 1}, 0, 0, args); !errors.Is(err, ErrorLaunchFailure) {
		t.Fatalf("wild ptr: %v", err)
	}
}

func TestModuleGlobals(t *testing.T) {
	r := newRuntime(t)
	img := BuiltinImage(80)
	img.Globals = []cubin.GlobalVar{{Name: "d_Table", Size: 256}}
	m, _, err := r.ModuleLoad(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	p, size, _, err := r.ModuleGetGlobal(m, "d_Table")
	if err != nil {
		t.Fatal(err)
	}
	if size != 256 || p == 0 {
		t.Fatalf("global %#x size %d", uint64(p), size)
	}
	// Globals are zero-initialized and writable.
	got, _, _ := r.MemcpyDtoH(p, 256)
	for _, b := range got {
		if b != 0 {
			t.Fatal("global not zeroed")
		}
	}
	if _, _, _, err := r.ModuleGetGlobal(m, "missing"); !errors.Is(err, ErrorNotFound) {
		t.Fatalf("missing global: %v", err)
	}
	// Unload frees globals.
	live := mustDevice(t, r).LiveAllocations()
	if _, err := r.ModuleUnload(m); err != nil {
		t.Fatal(err)
	}
	if got := mustDevice(t, r).LiveAllocations(); got != live-1 {
		t.Fatalf("allocations %d -> %d", live, got)
	}
}

func mustDevice(t *testing.T, r *Runtime) *gpu.Device {
	t.Helper()
	d, err := r.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMatrixMulKernelCorrectness(t *testing.T) {
	r := newRuntime(t)
	m := loadBuiltins(t, r)
	f, _, _ := r.ModuleGetFunction(m, KernelMatrixMul)

	// 64x32 * 32x64: block 32x32, grid 2x2.
	const hA, wA, wB = 64, 32, 64
	rng := rand.New(rand.NewSource(1))
	A := make([]float32, hA*wA)
	B := make([]float32, wA*wB)
	for i := range A {
		A[i] = rng.Float32()
	}
	for i := range B {
		B[i] = rng.Float32()
	}
	f32bytes := func(xs []float32) []byte {
		b := make([]byte, len(xs)*4)
		for i, x := range xs {
			binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(x))
		}
		return b
	}
	dA, _, _ := r.Malloc(hA * wA * 4)
	dB, _, _ := r.Malloc(wA * wB * 4)
	dC, _, _ := r.Malloc(hA * wB * 4)
	r.MemcpyHtoD(dA, f32bytes(A))
	r.MemcpyHtoD(dB, f32bytes(B))

	args := NewArgBuffer().Ptr(dC).Ptr(dA).Ptr(dB).I32(wA).I32(wB).Bytes()
	if _, err := r.LaunchKernel(f, gpu.Dim3{X: 2, Y: 2, Z: 1}, gpu.Dim3{X: 32, Y: 32, Z: 1}, 0, 0, args); err != nil {
		t.Fatal(err)
	}
	got, _, _ := r.MemcpyDtoH(dC, hA*wB*4)
	for row := 0; row < hA; row++ {
		for col := 0; col < wB; col++ {
			var want float32
			for k := 0; k < wA; k++ {
				want += A[row*wA+k] * B[k*wB+col]
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(got[(row*wB+col)*4:]))
			if diff := math.Abs(float64(v - want)); diff > 1e-3 {
				t.Fatalf("C[%d,%d] = %g, want %g", row, col, v, want)
			}
		}
	}
}

func TestHistogramKernelsCorrectness(t *testing.T) {
	r := newRuntime(t)
	m := loadBuiltins(t, r)
	fh, _, _ := r.ModuleGetFunction(m, KernelHistogram256)
	fm, _, _ := r.ModuleGetFunction(m, KernelMergeHist256)

	const n = 100_000
	const blocks = 8
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, n)
	rng.Read(data)
	var want [HistogramBins]uint32
	for _, v := range data {
		want[v]++
	}

	dData, _, _ := r.Malloc(n)
	dPartial, _, _ := r.Malloc(blocks * HistogramBins * 4)
	dHist, _, _ := r.Malloc(HistogramBins * 4)
	r.MemcpyHtoD(dData, data)

	args := NewArgBuffer().Ptr(dPartial).Ptr(dData).U32(n).Bytes()
	if _, err := r.LaunchKernel(fh, gpu.Dim3{X: blocks, Y: 1, Z: 1}, gpu.Dim3{X: 256, Y: 1, Z: 1}, 0, 0, args); err != nil {
		t.Fatal(err)
	}
	margs := NewArgBuffer().Ptr(dHist).Ptr(dPartial).U32(blocks).Bytes()
	if _, err := r.LaunchKernel(fm, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 256, Y: 1, Z: 1}, 0, 0, margs); err != nil {
		t.Fatal(err)
	}
	got, _, _ := r.MemcpyDtoH(dHist, HistogramBins*4)
	for bin := 0; bin < HistogramBins; bin++ {
		if v := binary.LittleEndian.Uint32(got[bin*4:]); v != want[bin] {
			t.Fatalf("bin %d = %d, want %d", bin, v, want[bin])
		}
	}
}

func TestLUKernelsSolveSystem(t *testing.T) {
	r := newRuntime(t)
	m := loadBuiltins(t, r)
	fd, _, _ := r.ModuleGetFunction(m, KernelLUDecompose)
	fs, _, _ := r.ModuleGetFunction(m, KernelLUSolve)

	const n = 32
	rng := rand.New(rand.NewSource(3))
	A := make([]float64, n*n)
	xTrue := make([]float64, n)
	for i := range A {
		A[i] = rng.Float64()*2 - 1
	}
	// Diagonal dominance for stability.
	for i := 0; i < n; i++ {
		A[i*n+i] += float64(n)
		xTrue[i] = rng.Float64()*10 - 5
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i] += A[i*n+j] * xTrue[j]
		}
	}
	f64bytes := func(xs []float64) []byte {
		out := make([]byte, len(xs)*8)
		for i, x := range xs {
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
		}
		return out
	}
	dA, _, _ := r.Malloc(n * n * 8)
	dPiv, _, _ := r.Malloc(n * 4)
	dB, _, _ := r.Malloc(n * 8)
	r.MemcpyHtoD(dA, f64bytes(A))
	r.MemcpyHtoD(dB, f64bytes(b))

	one := gpu.Dim3{X: 1, Y: 1, Z: 1}
	block := gpu.Dim3{X: 256, Y: 1, Z: 1}
	dargs := NewArgBuffer().Ptr(dA).Ptr(dPiv).I32(n).Bytes()
	if _, err := r.LaunchKernel(fd, one, block, 0, 0, dargs); err != nil {
		t.Fatal(err)
	}
	sargs := NewArgBuffer().Ptr(dA).Ptr(dPiv).Ptr(dB).I32(n).Bytes()
	if _, err := r.LaunchKernel(fs, one, block, 0, 0, sargs); err != nil {
		t.Fatal(err)
	}
	got, _, _ := r.MemcpyDtoH(dB, n*8)
	for i := 0; i < n; i++ {
		x := math.Float64frombits(binary.LittleEndian.Uint64(got[i*8:]))
		if diff := math.Abs(x - xTrue[i]); diff > 1e-9 {
			t.Fatalf("x[%d] = %g, want %g (diff %g)", i, x, xTrue[i], diff)
		}
	}
}

func TestLUSingularMatrix(t *testing.T) {
	r := newRuntime(t)
	m := loadBuiltins(t, r)
	fd, _, _ := r.ModuleGetFunction(m, KernelLUDecompose)
	const n = 4
	dA, _, _ := r.Malloc(n * n * 8)
	dPiv, _, _ := r.Malloc(n * 4)
	// All zeros: singular.
	args := NewArgBuffer().Ptr(dA).Ptr(dPiv).I32(n).Bytes()
	one := gpu.Dim3{X: 1, Y: 1, Z: 1}
	if _, err := r.LaunchKernel(fd, one, one, 0, 0, args); !errors.Is(err, ErrorLaunchFailure) {
		t.Fatalf("singular: %v", err)
	}
}

func TestCopyAndReduceKernels(t *testing.T) {
	r := newRuntime(t)
	m := loadBuiltins(t, r)
	fc, _, _ := r.ModuleGetFunction(m, KernelCopy)
	fr, _, _ := r.ModuleGetFunction(m, KernelReduceSum)

	const n = 1024
	src, _, _ := r.Malloc(n * 4)
	dst, _, _ := r.Malloc(n * 4)
	out, _, _ := r.Malloc(4)
	buf := make([]byte, n*4)
	var want float32
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(1.5))
		want += 1.5
	}
	r.MemcpyHtoD(src, buf)
	one := gpu.Dim3{X: 1, Y: 1, Z: 1}
	block := gpu.Dim3{X: 256, Y: 1, Z: 1}
	cargs := NewArgBuffer().Ptr(dst).Ptr(src).U64(n * 4).Bytes()
	if _, err := r.LaunchKernel(fc, one, block, 0, 0, cargs); err != nil {
		t.Fatal(err)
	}
	rargs := NewArgBuffer().Ptr(out).Ptr(dst).U32(n).Bytes()
	if _, err := r.LaunchKernel(fr, one, block, 0, 0, rargs); err != nil {
		t.Fatal(err)
	}
	got, _, _ := r.MemcpyDtoH(out, 4)
	if v := math.Float32frombits(binary.LittleEndian.Uint32(got)); v != want {
		t.Fatalf("sum = %g, want %g", v, want)
	}
}

func TestDeviceResetClearsModules(t *testing.T) {
	r := newRuntime(t)
	m := loadBuiltins(t, r)
	r.DeviceReset()
	if _, _, err := r.ModuleGetFunction(m, KernelVectorAdd); !errors.Is(err, ErrorInvalidHandle) {
		t.Fatalf("module survived reset: %v", err)
	}
	if mustDevice(t, r).LiveAllocations() != 0 {
		t.Fatal("allocations survived reset")
	}
}

// cudaDeviceReset destroys the device's streams and events with the
// rest of its state: their handles go invalid and stop counting
// against the handle cap, while the default stream and the other
// device's handles survive.
func TestDeviceResetDestroysStreamsAndEvents(t *testing.T) {
	r := NewRuntime(nil, gpu.New(gpu.SpecA100), gpu.New(gpu.SpecT4))
	r.SetHandleLimit(4)
	r.SetDevice(1)
	keep, _, _ := r.StreamCreate()
	keepEv, _, _ := r.EventCreate()
	r.SetDevice(0)
	st, _, _ := r.StreamCreate()
	ev, _, _ := r.EventCreate()
	if _, _, err := r.StreamCreate(); !errors.Is(err, ErrorMemoryAllocation) {
		t.Fatalf("fifth handle under a cap of 4: %v", err)
	}
	r.DeviceReset()
	if _, err := r.StreamSynchronize(st); !errors.Is(err, ErrorInvalidHandle) {
		t.Fatalf("stream survived reset: %v", err)
	}
	if _, err := r.EventRecord(ev, 0); !errors.Is(err, ErrorInvalidHandle) {
		t.Fatalf("event survived reset: %v", err)
	}
	if _, err := r.EventRecord(keepEv, keep); err != nil {
		t.Fatalf("other device's handles after reset: %v", err)
	}
	if r.Live(uint64(st)) || r.Live(uint64(ev)) || !r.Live(uint64(keep)) || !r.Live(uint64(keepEv)) {
		t.Fatal("Live disagrees with the handles the reset destroyed")
	}
	if _, err := r.StreamSynchronize(0); err != nil {
		t.Fatalf("default stream after reset: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := r.StreamCreate(); err != nil {
			t.Fatalf("reset did not release handle %d: %v", i, err)
		}
	}
}

func TestArgBufferLayout(t *testing.T) {
	// ptr, i32, i32, ptr: the second pointer must land on an 8-byte
	// boundary (offset 16).
	b := NewArgBuffer().Ptr(1).I32(2).I32(3).Ptr(4).Bytes()
	if len(b) != 24 {
		t.Fatalf("len = %d, want 24", len(b))
	}
	if binary.LittleEndian.Uint64(b[16:]) != 4 {
		t.Fatal("second pointer misaligned")
	}
	// ptr, i32, ptr: padding inserted at offset 12..16.
	b = NewArgBuffer().Ptr(1).I32(2).Ptr(3).Bytes()
	if len(b) != 24 || binary.LittleEndian.Uint64(b[16:]) != 3 {
		t.Fatalf("padded layout wrong: len=%d", len(b))
	}
	// A reset buffer assembles the layout a fresh one does, in the
	// storage it already has.
	var a ArgBuffer
	a.Ptr(9).I32(8).I32(7).Ptr(6).U64(5)
	first := &a.Bytes()[0]
	b = a.Reset().Ptr(1).I32(2).Ptr(3).Bytes()
	if !bytes.Equal(b, NewArgBuffer().Ptr(1).I32(2).Ptr(3).Bytes()) || &b[0] != first {
		t.Fatalf("reset buffer assembled % x, or in new storage", b)
	}
}

func TestBuiltinImageMatchesRegistry(t *testing.T) {
	img := BuiltinImage(80)
	if len(img.Kernels) != len(builtinKernels) {
		t.Fatalf("image has %d kernels, registry %d", len(img.Kernels), len(builtinKernels))
	}
	for i := range img.Kernels {
		if _, ok := builtinKernels[img.Kernels[i].Name]; !ok {
			t.Errorf("kernel %q not in registry", img.Kernels[i].Name)
		}
	}
}

func BenchmarkLaunchVectorAdd(b *testing.B) {
	r := NewRuntime(nil, gpu.New(gpu.SpecA100))
	m := loadBuiltins(b, r)
	f, _, _ := r.ModuleGetFunction(m, KernelVectorAdd)
	const n = 1024
	da, _, _ := r.Malloc(n * 4)
	db, _, _ := r.Malloc(n * 4)
	dc, _, _ := r.Malloc(n * 4)
	args := NewArgBuffer().Ptr(da).Ptr(db).Ptr(dc).I32(n).Bytes()
	grid := gpu.Dim3{X: 4, Y: 1, Z: 1}
	block := gpu.Dim3{X: 256, Y: 1, Z: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.LaunchKernel(f, grid, block, 0, 0, args); err != nil {
			b.Fatal(err)
		}
	}
}
