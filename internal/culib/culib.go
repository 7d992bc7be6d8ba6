// Package culib provides cuBLAS/cuSolver-style convenience wrappers
// over the Cricket virtualization layer: typed dense linear algebra
// entry points (GEMM, LU factorization and solve) that
// manage device buffers, kernel-argument marshaling, and launch
// geometry so applications do not have to.
//
// The paper notes that most applications use CUDA libraries such as
// cuSolver, cuBLAS, or cuFFT rather than raw kernels (§3.3); this
// package is that layer for the simulated stack. Like the real
// libraries, a Handle owns a loaded module and scratch state and every
// operation is an ordinary sequence of forwarded CUDA calls — the
// library works identically from a unikernel.
package culib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cricket/internal/core"
	"cricket/internal/cubin"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
)

// Library errors.
var (
	// ErrDim reports invalid matrix/vector dimensions.
	ErrDim = errors.New("culib: invalid dimensions")
	// ErrDestroyed reports use of a destroyed handle.
	ErrDestroyed = errors.New("culib: handle destroyed")
)

// A Handle owns the library's loaded kernels on one virtual GPU
// (cublasCreate / cusolverDnCreate).
type Handle struct {
	vg  *core.VirtualGPU
	mod *core.Module

	gemm  cuda.Function
	getrf cuda.Function
	getrs cuda.Function

	destroyed bool
}

// Create loads the library kernels onto the virtual GPU.
func Create(vg *core.VirtualGPU) (*Handle, error) {
	var fb cubin.FatBinary
	fb.AddImage(cuda.BuiltinImage(80), true)
	mod, err := vg.LoadModule(fb.Encode())
	if err != nil {
		return nil, err
	}
	h := &Handle{vg: vg, mod: mod}
	for _, bind := range []struct {
		dst  *cuda.Function
		name string
	}{
		{&h.gemm, cuda.KernelMatrixMul},
		{&h.getrf, cuda.KernelLUDecompose},
		{&h.getrs, cuda.KernelLUSolve},
	} {
		f, err := mod.Function(bind.name)
		if err != nil {
			return nil, err
		}
		*bind.dst = f
	}
	return h, nil
}

// Destroy unloads the library module. The handle is unusable after.
func (h *Handle) Destroy() error {
	if h.destroyed {
		return ErrDestroyed
	}
	h.destroyed = true
	return h.mod.Unload()
}

func (h *Handle) check() error {
	if h.destroyed {
		return ErrDestroyed
	}
	return nil
}

// A Matrix is a row-major float32 device matrix.
type Matrix struct {
	Rows, Cols int
	Buf        *core.Buffer
}

// NewMatrix allocates a rows×cols float32 device matrix.
func (h *Handle) NewMatrix(rows, cols int) (*Matrix, error) {
	if err := h.check(); err != nil {
		return nil, err
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrDim, rows, cols)
	}
	buf, err := h.vg.Alloc(uint64(rows) * uint64(cols) * 4)
	if err != nil {
		return nil, err
	}
	return &Matrix{Rows: rows, Cols: cols, Buf: buf}, nil
}

// SetMatrix uploads host values (cublasSetMatrix).
func (h *Handle) SetMatrix(m *Matrix, vals []float32) error {
	if err := h.check(); err != nil {
		return err
	}
	if len(vals) != m.Rows*m.Cols {
		return fmt.Errorf("%w: %d values for %dx%d", ErrDim, len(vals), m.Rows, m.Cols)
	}
	return m.Buf.Write(f32le(vals))
}

// GetMatrix downloads device values (cublasGetMatrix).
func (h *Handle) GetMatrix(m *Matrix) ([]float32, error) {
	if err := h.check(); err != nil {
		return nil, err
	}
	b, err := m.Buf.Read()
	if err != nil {
		return nil, err
	}
	return lef32(b), nil
}

// Sgemm computes C = A × B (the sample kernel's alpha=1, beta=0 case;
// cublasSgemm restricted accordingly). A is m×k, B is k×n, C is m×n;
// m and n must be multiples of the 32-wide tile.
func (h *Handle) Sgemm(c, a, b *Matrix) error {
	if err := h.check(); err != nil {
		return err
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	if b.Rows != k || c.Rows != m || c.Cols != n {
		return fmt.Errorf("%w: A %dx%d, B %dx%d, C %dx%d", ErrDim, a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	if m%32 != 0 || n%32 != 0 {
		return fmt.Errorf("%w: m=%d n=%d must be multiples of 32", ErrDim, m, n)
	}
	args := cuda.NewArgBuffer().
		Ptr(c.Buf.Ptr()).Ptr(a.Buf.Ptr()).Ptr(b.Buf.Ptr()).
		I32(int32(k)).I32(int32(n)).Bytes()
	grid := gpu.Dim3{X: uint32(n / 32), Y: uint32(m / 32), Z: 1}
	block := gpu.Dim3{X: 32, Y: 32, Z: 1}
	return h.vg.Launch(h.gemm, grid, block, 0, args)
}

// LUFactors holds the output of DnDgetrf: the packed LU factors and
// pivot indices, both resident on the device.
type LUFactors struct {
	N   int
	LU  *core.Buffer // n×n float64, L below the unit diagonal, U above
	Piv *core.Buffer // n int32 pivot rows
}

// DnDgetrf factors a dense float64 system in place on the device
// (cusolverDnDgetrf). The input matrix is row-major n×n.
func (h *Handle) DnDgetrf(n int, a []float64) (*LUFactors, error) {
	if err := h.check(); err != nil {
		return nil, err
	}
	if n <= 0 || len(a) != n*n {
		return nil, fmt.Errorf("%w: %d values for n=%d", ErrDim, len(a), n)
	}
	dA, err := h.vg.Alloc(uint64(n) * uint64(n) * 8)
	if err != nil {
		return nil, err
	}
	dPiv, err := h.vg.Alloc(uint64(n) * 4)
	if err != nil {
		dA.Free()
		return nil, err
	}
	if err := dA.Write(f64le(a)); err != nil {
		dA.Free()
		dPiv.Free()
		return nil, err
	}
	args := cuda.NewArgBuffer().Ptr(dA.Ptr()).Ptr(dPiv.Ptr()).I32(int32(n)).Bytes()
	if err := h.vg.Launch(h.getrf, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 256, Y: 1, Z: 1}, 0, args); err != nil {
		dA.Free()
		dPiv.Free()
		return nil, err
	}
	return &LUFactors{N: n, LU: dA, Piv: dPiv}, nil
}

// DnDgetrs solves LUx = Pb using previously computed factors
// (cusolverDnDgetrs) and returns x.
func (h *Handle) DnDgetrs(f *LUFactors, b []float64) ([]float64, error) {
	if err := h.check(); err != nil {
		return nil, err
	}
	if len(b) != f.N {
		return nil, fmt.Errorf("%w: rhs has %d entries for n=%d", ErrDim, len(b), f.N)
	}
	dB, err := h.vg.Alloc(uint64(f.N) * 8)
	if err != nil {
		return nil, err
	}
	defer dB.Free()
	if err := dB.Write(f64le(b)); err != nil {
		return nil, err
	}
	args := cuda.NewArgBuffer().
		Ptr(f.LU.Ptr()).Ptr(f.Piv.Ptr()).Ptr(dB.Ptr()).I32(int32(f.N)).Bytes()
	if err := h.vg.Launch(h.getrs, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 256, Y: 1, Z: 1}, 0, args); err != nil {
		return nil, err
	}
	out, err := dB.Read()
	if err != nil {
		return nil, err
	}
	return lef64(out), nil
}

// Free releases the factor buffers.
func (f *LUFactors) Free() error {
	err1 := f.LU.Free()
	err2 := f.Piv.Free()
	if err1 != nil {
		return err1
	}
	return err2
}

// Solve is the convenience one-shot: factor A and solve Ax = b
// (cusolverDn's combined flow), releasing device state afterwards.
func (h *Handle) Solve(n int, a, b []float64) ([]float64, error) {
	f, err := h.DnDgetrf(n, a)
	if err != nil {
		return nil, err
	}
	defer f.Free()
	return h.DnDgetrs(f, b)
}

func f32le(xs []float32) []byte {
	out := make([]byte, len(xs)*4)
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(x))
	}
	return out
}

func lef32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func f64le(xs []float64) []byte {
	out := make([]byte, len(xs)*8)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

func lef64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}
