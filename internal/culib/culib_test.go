package culib

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cricket/internal/core"
	"cricket/internal/guest"
)

func newHandle(t testing.TB) (*Handle, *core.VirtualGPU) {
	t.Helper()
	cl := core.NewCluster()
	vg, err := cl.Connect(guest.RustyHermit())
	if err != nil {
		t.Fatal(err)
	}
	h, err := Create(vg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		vg.Close()
		cl.Close()
	})
	return h, vg
}

func TestSgemmCorrectness(t *testing.T) {
	h, _ := newHandle(t)
	const m, k, n = 32, 16, 64
	a, err := h.NewMatrix(m, k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.NewMatrix(k, n)
	if err != nil {
		t.Fatal(err)
	}
	c, err := h.NewMatrix(m, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	av := make([]float32, m*k)
	bv := make([]float32, k*n)
	for i := range av {
		av[i] = rng.Float32() - 0.5
	}
	for i := range bv {
		bv[i] = rng.Float32() - 0.5
	}
	if err := h.SetMatrix(a, av); err != nil {
		t.Fatal(err)
	}
	if err := h.SetMatrix(b, bv); err != nil {
		t.Fatal(err)
	}
	if err := h.Sgemm(c, a, b); err != nil {
		t.Fatal(err)
	}
	got, err := h.GetMatrix(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var want float32
			for p := 0; p < k; p++ {
				want += av[i*k+p] * bv[p*n+j]
			}
			if diff := math.Abs(float64(got[i*n+j] - want)); diff > 1e-4 {
				t.Fatalf("C[%d,%d] = %g, want %g", i, j, got[i*n+j], want)
			}
		}
	}
}

func TestSgemmDimChecks(t *testing.T) {
	h, _ := newHandle(t)
	a, _ := h.NewMatrix(32, 16)
	b, _ := h.NewMatrix(8, 64) // mismatched inner dim
	c, _ := h.NewMatrix(32, 64)
	if err := h.Sgemm(c, a, b); !errors.Is(err, ErrDim) {
		t.Fatalf("err = %v", err)
	}
	// m not a multiple of 32.
	a2, _ := h.NewMatrix(16, 16)
	b2, _ := h.NewMatrix(16, 32)
	c2, _ := h.NewMatrix(16, 32)
	if err := h.Sgemm(c2, a2, b2); !errors.Is(err, ErrDim) {
		t.Fatalf("err = %v", err)
	}
	if _, err := h.NewMatrix(0, 5); !errors.Is(err, ErrDim) {
		t.Fatalf("err = %v", err)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	h, _ := newHandle(t)
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	a := []float64{2, 1, 1, 3}
	b := []float64{5, 10}
	x, err := h.Solve(2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestFactorReuse(t *testing.T) {
	h, vg := newHandle(t)
	const n = 24
	rng := rand.New(rand.NewSource(4))
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n)
	}
	f, err := h.DnDgetrf(n, a)
	if err != nil {
		t.Fatal(err)
	}
	// Solve several right-hand sides against one factorization.
	for trial := 0; trial < 3; trial++ {
		xTrue := make([]float64, n)
		b := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.Float64()*4 - 2
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += a[i*n+j] * xTrue[j]
			}
		}
		x, err := h.DnDgetrs(f, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-9 {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, x[i], xTrue[i])
			}
		}
	}
	live := vg.LiveBuffers()
	if err := f.Free(); err != nil {
		t.Fatal(err)
	}
	if vg.LiveBuffers() != live-2 {
		t.Fatal("factor buffers not released")
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	h, _ := newHandle(t)
	if _, err := h.Solve(3, make([]float64, 5), make([]float64, 3)); !errors.Is(err, ErrDim) {
		t.Fatalf("err = %v", err)
	}
	f, err := h.DnDgetrf(2, []float64{1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Free()
	if _, err := h.DnDgetrs(f, make([]float64, 3)); !errors.Is(err, ErrDim) {
		t.Fatalf("err = %v", err)
	}
	// Singular matrix surfaces as a launch failure.
	if _, err := h.DnDgetrf(2, []float64{0, 0, 0, 0}); err == nil {
		t.Fatal("singular matrix factored")
	}
}

func TestDestroyedHandle(t *testing.T) {
	h, _ := newHandle(t)
	if err := h.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := h.Destroy(); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("second destroy: %v", err)
	}
	if _, err := h.NewMatrix(32, 32); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("err = %v", err)
	}
	if _, err := h.Solve(2, make([]float64, 4), make([]float64, 2)); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("err = %v", err)
	}
}

// Property: Solve recovers the generating solution of random
// well-conditioned systems.
func TestQuickSolveRecoversSolution(t *testing.T) {
	h, _ := newHandle(t)
	f := func(seed int64, sizeSeed uint8) bool {
		n := int(sizeSeed)%24 + 2
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, n*n)
		xTrue := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64()*2 - 1
		}
		for i := 0; i < n; i++ {
			a[i*n+i] += float64(n) + 1
			xTrue[i] = rng.Float64()*10 - 5
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += a[i*n+j] * xTrue[j]
			}
		}
		x, err := h.Solve(n, a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
