package cuda

import (
	"encoding/binary"
	"fmt"
	"math"

	"cricket/internal/cubin"
	"cricket/internal/gpu"
)

// Built-in kernel names. These are the kernels of the CUDA-sample
// proxy applications the paper evaluates (matrixMul, histogram,
// cuSolverDn_LinearSolver, bandwidthTest) plus a vectorAdd used by the
// quickstart example. Loading a cubin whose kernels are not in this
// registry fails with ErrorNoBinaryForGPU, the same way a real driver
// rejects an image with no compatible SASS.
const (
	KernelVectorAdd    = "vectorAdd"
	KernelMatrixMul    = "matrixMulCUDA"
	KernelHistogram256 = "histogram256Kernel"
	KernelMergeHist256 = "mergeHistogram256Kernel"
	KernelLUDecompose  = "luDecomposeKernel"
	KernelLUSolve      = "luSolveKernel"
	KernelCopy         = "copyKernel"
	KernelReduceSum    = "reduceSumKernel"
	KernelPrefill      = "prefillAttention"
	KernelDecodeStep   = "decodeStep"
)

// HistogramBins is the bin count of the histogram256 kernels.
const HistogramBins = 256

// builtinKernels is the registry of executable kernel implementations.
var builtinKernels = map[string]gpu.Kernel{
	KernelVectorAdd: {
		Fn:   vectorAddKernel,
		Cost: gpu.Cost{FLOPsPerThread: 1, BytesPerThread: 12},
	},
	KernelMatrixMul: {
		Fn: matrixMulKernel,
		CostFn: func(cfg gpu.LaunchConfig, args *gpu.Args) gpu.Cost {
			wA, _ := args.I32(3)
			// 2 FLOPs per inner-product step; shared-memory tiling
			// reads each element ~2/tile times.
			return gpu.Cost{
				FLOPsPerThread: 2 * float64(wA),
				BytesPerThread: 4 * float64(wA) / 32,
			}
		},
	},
	KernelHistogram256: {
		Fn: histogram256Kernel,
		CostFn: func(cfg gpu.LaunchConfig, args *gpu.Args) gpu.Cost {
			n, _ := args.U32(2)
			threads := float64(cfg.Grid.Count() * cfg.Block.Count())
			// Short-running, memory-bound kernel (paper §4.1).
			return gpu.Cost{BytesPerThread: float64(n) / threads, FixedNS: 800}
		},
	},
	KernelMergeHist256: {
		Fn:   mergeHistogram256Kernel,
		Cost: gpu.Cost{BytesPerThread: 8, FixedNS: 500},
	},
	KernelLUDecompose: {
		Fn: luDecomposeKernel,
		CostFn: func(cfg gpu.LaunchConfig, args *gpu.Args) gpu.Cost {
			n, _ := args.I32(2)
			threads := float64(cfg.Grid.Count() * cfg.Block.Count())
			fl := 2.0 / 3.0 * float64(n) * float64(n) * float64(n)
			// Panel factorizations form a latency chain over the n
			// columns (cuSolver getrf is far from peak on mid-size
			// matrices): charge ~27 ns per matrix element on top of
			// the roofline terms (≈22 ms for the paper's 900x900).
			return gpu.Cost{
				FLOPsPerThread: fl / threads,
				BytesPerThread: 8 * float64(n) * float64(n) / threads,
				FixedNS:        27 * float64(n) * float64(n),
			}
		},
	},
	KernelLUSolve: {
		Fn: luSolveKernel,
		CostFn: func(cfg gpu.LaunchConfig, args *gpu.Args) gpu.Cost {
			n, _ := args.I32(3)
			threads := float64(cfg.Grid.Count() * cfg.Block.Count())
			return gpu.Cost{FLOPsPerThread: 2 * float64(n) * float64(n) / threads}
		},
	},
	KernelCopy: {
		Fn: copyKernel,
		CostFn: func(cfg gpu.LaunchConfig, args *gpu.Args) gpu.Cost {
			n, _ := args.U64(2)
			threads := float64(cfg.Grid.Count() * cfg.Block.Count())
			return gpu.Cost{BytesPerThread: 2 * float64(n) / threads}
		},
	},
	KernelReduceSum: {
		Fn: reduceSumKernel,
		CostFn: func(cfg gpu.LaunchConfig, args *gpu.Args) gpu.Cost {
			n, _ := args.U32(2)
			threads := float64(cfg.Grid.Count() * cfg.Block.Count())
			return gpu.Cost{FLOPsPerThread: float64(n) / threads, BytesPerThread: 4 * float64(n) / threads}
		},
	},
	KernelPrefill: {
		Fn: prefillKernel,
		CostFn: func(cfg gpu.LaunchConfig, args *gpu.Args) gpu.Cost {
			n, _ := args.I32(4)
			w, _ := args.I32(6)
			threads := float64(cfg.Grid.Count() * cfg.Block.Count())
			// One big compute-bound launch per request: attention over
			// the whole prompt against the full weight matrix.
			return gpu.Cost{
				FLOPsPerThread: 8 * float64(n) / threads,
				BytesPerThread: (float64(n) + 4*float64(w)) / threads,
				FixedNS:        2000,
			}
		},
	},
	KernelDecodeStep: {
		Fn: decodeStepKernel,
		// One tiny launch per generated token: latency-bound, dominated
		// by fixed launch overhead rather than arithmetic.
		Cost: gpu.Cost{BytesPerThread: 64, FixedNS: 1500},
	},
}

// vectorAdd: c[i] = a[i] + b[i].
// Params: (const float *A, const float *B, float *C, int n).
func vectorAddKernel(mem *gpu.Mem, cfg gpu.LaunchConfig, args *gpu.Args) error {
	aPtr, err := args.Ptr(0)
	if err != nil {
		return err
	}
	bPtr, err := args.Ptr(1)
	if err != nil {
		return err
	}
	cPtr, err := args.Ptr(2)
	if err != nil {
		return err
	}
	n, err := args.I32(3)
	if err != nil {
		return err
	}
	if n < 0 {
		return gpu.ErrBadArgs
	}
	size := uint64(n) * 4
	a, err := mem.Bytes(aPtr, size)
	if err != nil {
		return err
	}
	b, err := mem.Bytes(bPtr, size)
	if err != nil {
		return err
	}
	c, err := mem.Bytes(cPtr, size)
	if err != nil {
		return err
	}
	// Equal lengths stated up front let the compiler drop most of the
	// loop's bounds checks, which cost more than the additions.
	b, c = b[:len(a)], c[:len(a)]
	for i := 0; i+4 <= len(a); i += 4 {
		av := math.Float32frombits(binary.LittleEndian.Uint32(a[i : i+4]))
		bv := math.Float32frombits(binary.LittleEndian.Uint32(b[i : i+4]))
		binary.LittleEndian.PutUint32(c[i:i+4], math.Float32bits(av+bv))
	}
	return nil
}

// matrixMul: C = A × B for row-major float32 matrices.
// Params: (float *C, float *A, float *B, int wA, int wB).
// Grid × block define the C extent: hC = grid.Y*block.Y rows,
// wC = grid.X*block.X = wB columns, as in the CUDA sample.
func matrixMulKernel(mem *gpu.Mem, cfg gpu.LaunchConfig, args *gpu.Args) error {
	cPtr, err := args.Ptr(0)
	if err != nil {
		return err
	}
	aPtr, err := args.Ptr(1)
	if err != nil {
		return err
	}
	bPtr, err := args.Ptr(2)
	if err != nil {
		return err
	}
	wA, err := args.I32(3)
	if err != nil {
		return err
	}
	wB, err := args.I32(4)
	if err != nil {
		return err
	}
	if wA <= 0 || wB <= 0 {
		return gpu.ErrBadArgs
	}
	hA := int(cfg.Grid.Y * cfg.Block.Y)
	wC := int(cfg.Grid.X * cfg.Block.X)
	if wC != int(wB) {
		return fmt.Errorf("%w: grid implies wC=%d but wB=%d", gpu.ErrBadArgs, wC, wB)
	}
	a, err := mem.Bytes(aPtr, uint64(hA)*uint64(wA)*4)
	if err != nil {
		return err
	}
	b, err := mem.Bytes(bPtr, uint64(wA)*uint64(wB)*4)
	if err != nil {
		return err
	}
	c, err := mem.Bytes(cPtr, uint64(hA)*uint64(wB)*4)
	if err != nil {
		return err
	}
	f32 := func(buf []byte, i int) float32 {
		return math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	for row := 0; row < hA; row++ {
		for col := 0; col < int(wB); col++ {
			var sum float32
			for k := 0; k < int(wA); k++ {
				sum += f32(a, row*int(wA)+k) * f32(b, k*int(wB)+col)
			}
			binary.LittleEndian.PutUint32(c[(row*int(wB)+col)*4:], math.Float32bits(sum))
		}
	}
	return nil
}

// histogram256: per-block partial histograms over byte data.
// Params: (uint *d_PartialHistograms, const uint8 *d_Data, uint byteCount).
// Each grid block produces one 256-bin partial histogram, as in the
// CUDA sample; mergeHistogram256 folds them together.
func histogram256Kernel(mem *gpu.Mem, cfg gpu.LaunchConfig, args *gpu.Args) error {
	histPtr, err := args.Ptr(0)
	if err != nil {
		return err
	}
	dataPtr, err := args.Ptr(1)
	if err != nil {
		return err
	}
	n, err := args.U32(2)
	if err != nil {
		return err
	}
	blocks := int(cfg.Grid.Count())
	hist, err := mem.Bytes(histPtr, uint64(blocks)*HistogramBins*4)
	if err != nil {
		return err
	}
	data, err := mem.Bytes(dataPtr, uint64(n))
	if err != nil {
		return err
	}
	for i := range hist {
		hist[i] = 0
	}
	// Data is striped across blocks the way the sample strides warps.
	for i, v := range data {
		block := i % blocks
		off := (block*HistogramBins + int(v)) * 4
		binary.LittleEndian.PutUint32(hist[off:], binary.LittleEndian.Uint32(hist[off:])+1)
	}
	return nil
}

// mergeHistogram256: fold partial histograms into the final one.
// Params: (uint *d_Histogram, const uint *d_PartialHistograms, uint count).
func mergeHistogram256Kernel(mem *gpu.Mem, cfg gpu.LaunchConfig, args *gpu.Args) error {
	outPtr, err := args.Ptr(0)
	if err != nil {
		return err
	}
	partPtr, err := args.Ptr(1)
	if err != nil {
		return err
	}
	count, err := args.U32(2)
	if err != nil {
		return err
	}
	out, err := mem.Bytes(outPtr, HistogramBins*4)
	if err != nil {
		return err
	}
	part, err := mem.Bytes(partPtr, uint64(count)*HistogramBins*4)
	if err != nil {
		return err
	}
	for bin := 0; bin < HistogramBins; bin++ {
		var sum uint32
		for h := 0; h < int(count); h++ {
			sum += binary.LittleEndian.Uint32(part[(h*HistogramBins+bin)*4:])
		}
		binary.LittleEndian.PutUint32(out[bin*4:], sum)
	}
	return nil
}

// luDecompose: in-place LU factorization with partial pivoting of a
// row-major n×n float64 matrix, recording pivots — the device-side
// heart of cuSolverDn's getrf.
// Params: (double *A, int *piv, int n).
func luDecomposeKernel(mem *gpu.Mem, cfg gpu.LaunchConfig, args *gpu.Args) error {
	aPtr, err := args.Ptr(0)
	if err != nil {
		return err
	}
	pivPtr, err := args.Ptr(1)
	if err != nil {
		return err
	}
	n, err := args.I32(2)
	if err != nil {
		return err
	}
	if n <= 0 {
		return gpu.ErrBadArgs
	}
	ab, err := mem.Bytes(aPtr, uint64(n)*uint64(n)*8)
	if err != nil {
		return err
	}
	pb, err := mem.Bytes(pivPtr, uint64(n)*4)
	if err != nil {
		return err
	}
	N := int(n)
	get := func(r, c int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(ab[(r*N+c)*8:]))
	}
	set := func(r, c int, v float64) {
		binary.LittleEndian.PutUint64(ab[(r*N+c)*8:], math.Float64bits(v))
	}
	for k := 0; k < N; k++ {
		// Pivot search.
		p, maxAbs := k, math.Abs(get(k, k))
		for r := k + 1; r < N; r++ {
			if a := math.Abs(get(r, k)); a > maxAbs {
				p, maxAbs = r, a
			}
		}
		if maxAbs == 0 {
			return fmt.Errorf("%w: singular matrix at column %d", gpu.ErrBadArgs, k)
		}
		binary.LittleEndian.PutUint32(pb[k*4:], uint32(p))
		if p != k {
			for c := 0; c < N; c++ {
				vk, vp := get(k, c), get(p, c)
				set(k, c, vp)
				set(p, c, vk)
			}
		}
		// Elimination.
		pivot := get(k, k)
		for r := k + 1; r < N; r++ {
			f := get(r, k) / pivot
			set(r, k, f)
			for c := k + 1; c < N; c++ {
				set(r, c, get(r, c)-f*get(k, c))
			}
		}
	}
	return nil
}

// luSolve: solve LUx = Pb given the factors and pivots produced by
// luDecompose. b is overwritten with x (getrs).
// Params: (const double *A, const int *piv, double *b, int n).
func luSolveKernel(mem *gpu.Mem, cfg gpu.LaunchConfig, args *gpu.Args) error {
	aPtr, err := args.Ptr(0)
	if err != nil {
		return err
	}
	pivPtr, err := args.Ptr(1)
	if err != nil {
		return err
	}
	bPtr, err := args.Ptr(2)
	if err != nil {
		return err
	}
	n, err := args.I32(3)
	if err != nil {
		return err
	}
	if n <= 0 {
		return gpu.ErrBadArgs
	}
	N := int(n)
	ab, err := mem.Bytes(aPtr, uint64(N)*uint64(N)*8)
	if err != nil {
		return err
	}
	pb, err := mem.Bytes(pivPtr, uint64(N)*4)
	if err != nil {
		return err
	}
	bb, err := mem.Bytes(bPtr, uint64(N)*8)
	if err != nil {
		return err
	}
	getA := func(r, c int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(ab[(r*N+c)*8:]))
	}
	getB := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(bb[i*8:]))
	}
	setB := func(i int, v float64) {
		binary.LittleEndian.PutUint64(bb[i*8:], math.Float64bits(v))
	}
	// Apply pivots.
	for k := 0; k < N; k++ {
		p := int(binary.LittleEndian.Uint32(pb[k*4:]))
		if p != k {
			vk, vp := getB(k), getB(p)
			setB(k, vp)
			setB(p, vk)
		}
	}
	// Forward substitution (L has implicit unit diagonal).
	for r := 1; r < N; r++ {
		v := getB(r)
		for c := 0; c < r; c++ {
			v -= getA(r, c) * getB(c)
		}
		setB(r, v)
	}
	// Back substitution.
	for r := N - 1; r >= 0; r-- {
		v := getB(r)
		for c := r + 1; c < N; c++ {
			v -= getA(r, c) * getB(c)
		}
		setB(r, v/getA(r, r))
	}
	return nil
}

// copyKernel: device-to-device copy used by bandwidthTest.
// Params: (void *dst, const void *src, unsigned long long n).
func copyKernel(mem *gpu.Mem, cfg gpu.LaunchConfig, args *gpu.Args) error {
	dstPtr, err := args.Ptr(0)
	if err != nil {
		return err
	}
	srcPtr, err := args.Ptr(1)
	if err != nil {
		return err
	}
	n, err := args.U64(2)
	if err != nil {
		return err
	}
	dst, err := mem.Bytes(dstPtr, n)
	if err != nil {
		return err
	}
	src, err := mem.Bytes(srcPtr, n)
	if err != nil {
		return err
	}
	copy(dst, src)
	return nil
}

// reduceSum: out[0] = sum of n float32 inputs.
// Params: (float *out, const float *in, uint n).
func reduceSumKernel(mem *gpu.Mem, cfg gpu.LaunchConfig, args *gpu.Args) error {
	outPtr, err := args.Ptr(0)
	if err != nil {
		return err
	}
	inPtr, err := args.Ptr(1)
	if err != nil {
		return err
	}
	n, err := args.U32(2)
	if err != nil {
		return err
	}
	in, err := mem.Bytes(inPtr, uint64(n)*4)
	if err != nil {
		return err
	}
	out, err := mem.Bytes(outPtr, 4)
	if err != nil {
		return err
	}
	var sum float32
	for i := 0; i < int(n); i++ {
		sum += math.Float32frombits(binary.LittleEndian.Uint32(in[i*4:]))
	}
	binary.LittleEndian.PutUint32(out, math.Float32bits(sum))
	return nil
}

// mix64 is the splitmix64-style state-transition mixer shared by the
// prefill and decode kernels. The serving workloads treat the decoder
// state as an opaque 64-bit value whose evolution depends on device-
// resident weights, so bit-identity of the token stream proves the
// weights (and therefore replay/migration of device memory) are intact.
func mix64(h, v uint64) uint64 {
	h ^= v
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// PrefillSeed is the initial decoder state before the prompt is folded
// in (FNV-1a offset basis).
const PrefillSeed uint64 = 0xcbf29ce484222325

// PrefillRef computes the post-prefill decoder state host-side, for
// verifying device results. weights is the u32-word view of the weight
// buffer.
func PrefillRef(prompt []byte, weights []uint32) uint64 {
	h := PrefillSeed
	for i, b := range prompt {
		w := weights[i%len(weights)]
		h = mix64(h, uint64(b)|uint64(w)<<8)
	}
	return h
}

// DecodeStepRef computes one decode-step state transition host-side.
func DecodeStepRef(prev uint64, step int, weights []uint32) uint64 {
	w := weights[(step*31+7)%len(weights)]
	return mix64(prev, uint64(w)^(uint64(uint32(step))<<32))
}

// TokenOf projects a decoder state onto a token id (the "vocabulary"
// is 50257 entries, GPT-2 sized).
func TokenOf(state uint64) uint32 { return uint32(state>>32) % 50257 }

// prefillAttention: fold an uploaded prompt against the device-resident
// weights into the decoder state — the one large launch at the head of
// a serving request. Writes the prompt-derived KV-cache prefix and the
// 8-byte state to the output slot.
// Params: (uint64 *state, uint8 *kv, const uint8 *prompt,
// const uint32 *weights, int promptLen, int kvCap, int wWords).
func prefillKernel(mem *gpu.Mem, cfg gpu.LaunchConfig, args *gpu.Args) error {
	statePtr, err := args.Ptr(0)
	if err != nil {
		return err
	}
	kvPtr, err := args.Ptr(1)
	if err != nil {
		return err
	}
	promptPtr, err := args.Ptr(2)
	if err != nil {
		return err
	}
	weightsPtr, err := args.Ptr(3)
	if err != nil {
		return err
	}
	promptLen, err := args.I32(4)
	if err != nil {
		return err
	}
	kvCap, err := args.I32(5)
	if err != nil {
		return err
	}
	wWords, err := args.I32(6)
	if err != nil {
		return err
	}
	if promptLen < 0 || kvCap < 0 || wWords <= 0 {
		return gpu.ErrBadArgs
	}
	state, err := mem.Bytes(statePtr, 8)
	if err != nil {
		return err
	}
	prompt, err := mem.Bytes(promptPtr, uint64(promptLen))
	if err != nil {
		return err
	}
	weights, err := mem.Bytes(weightsPtr, uint64(wWords)*4)
	if err != nil {
		return err
	}
	var kv []byte
	if kvCap > 0 {
		if kv, err = mem.Bytes(kvPtr, uint64(kvCap)); err != nil {
			return err
		}
	}
	h := PrefillSeed
	for i := 0; i < int(promptLen); i++ {
		w := binary.LittleEndian.Uint32(weights[(i%int(wWords))*4:])
		h = mix64(h, uint64(prompt[i])|uint64(w)<<8)
		if kvCap > 0 {
			kv[i%int(kvCap)] = byte(h)
		}
	}
	binary.LittleEndian.PutUint64(state, h)
	return nil
}

// decodeStep: one token-generation step — the tiny launch the serving
// engine issues thousands of per request. The previous state arrives by
// value (the host holds it), so the transition depends only on the
// argument buffer and the device-resident weights; the KV write models
// cache growth but never feeds back into the state.
// Params: (uint64 *state, uint8 *kv, const uint32 *weights, int step,
// uint64 prevState, int kvCap, int wWords).
func decodeStepKernel(mem *gpu.Mem, cfg gpu.LaunchConfig, args *gpu.Args) error {
	statePtr, err := args.Ptr(0)
	if err != nil {
		return err
	}
	kvPtr, err := args.Ptr(1)
	if err != nil {
		return err
	}
	weightsPtr, err := args.Ptr(2)
	if err != nil {
		return err
	}
	step, err := args.I32(3)
	if err != nil {
		return err
	}
	prev, err := args.U64(4)
	if err != nil {
		return err
	}
	kvCap, err := args.I32(5)
	if err != nil {
		return err
	}
	wWords, err := args.I32(6)
	if err != nil {
		return err
	}
	if step < 0 || kvCap < 0 || wWords <= 0 {
		return gpu.ErrBadArgs
	}
	state, err := mem.Bytes(statePtr, 8)
	if err != nil {
		return err
	}
	weights, err := mem.Bytes(weightsPtr, uint64(wWords)*4)
	if err != nil {
		return err
	}
	w := binary.LittleEndian.Uint32(weights[((int(step)*31+7)%int(wWords))*4:])
	h := mix64(prev, uint64(w)^(uint64(uint32(step))<<32))
	if kvCap > 0 {
		kv, err := mem.Bytes(kvPtr, uint64(kvCap))
		if err != nil {
			return err
		}
		off := (int(step) * 8) % int(kvCap)
		for j := 0; j < 8 && off+j < int(kvCap); j++ {
			kv[off+j] = byte(h >> (8 * uint(j)))
		}
	}
	binary.LittleEndian.PutUint64(state, h)
	return nil
}

// BuiltinImage returns a cubin image for the given architecture whose
// kernel metadata matches the built-in registry — the artifact "nvcc"
// would produce for the proxy applications. Applications write it to
// a fatbin, optionally compressed, and load it through cuModuleLoad
// exactly the way the paper's extended Cricket does.
func BuiltinImage(arch uint32) *cubin.Image {
	ptr := func(off uint16) cubin.ParamInfo {
		return cubin.ParamInfo{Offset: off, Size: 8, Kind: cubin.ParamPointer}
	}
	scalar32 := func(off uint16) cubin.ParamInfo {
		return cubin.ParamInfo{Offset: off, Size: 4, Kind: cubin.ParamScalar}
	}
	scalar64 := func(off uint16) cubin.ParamInfo {
		return cubin.ParamInfo{Offset: off, Size: 8, Kind: cubin.ParamScalar}
	}
	code := func(tag string) []byte { return []byte("SASS:" + tag) }
	return &cubin.Image{
		Arch: arch,
		Kernels: []cubin.KernelDesc{
			{
				Name:          KernelVectorAdd,
				Params:        []cubin.ParamInfo{ptr(0), ptr(8), ptr(16), scalar32(24)},
				RegsPerThread: 16, Code: code(KernelVectorAdd),
			},
			{
				Name:      KernelMatrixMul,
				Params:    []cubin.ParamInfo{ptr(0), ptr(8), ptr(16), scalar32(24), scalar32(28)},
				SharedMem: 8192, RegsPerThread: 32, Code: code(KernelMatrixMul),
			},
			{
				Name:      KernelHistogram256,
				Params:    []cubin.ParamInfo{ptr(0), ptr(8), scalar32(16)},
				SharedMem: HistogramBins * 4, RegsPerThread: 16, Code: code(KernelHistogram256),
			},
			{
				Name:          KernelMergeHist256,
				Params:        []cubin.ParamInfo{ptr(0), ptr(8), scalar32(16)},
				RegsPerThread: 12, Code: code(KernelMergeHist256),
			},
			{
				Name:          KernelLUDecompose,
				Params:        []cubin.ParamInfo{ptr(0), ptr(8), scalar32(16)},
				RegsPerThread: 48, Code: code(KernelLUDecompose),
			},
			{
				Name:          KernelLUSolve,
				Params:        []cubin.ParamInfo{ptr(0), ptr(8), ptr(16), scalar32(24)},
				RegsPerThread: 32, Code: code(KernelLUSolve),
			},
			{
				Name:          KernelCopy,
				Params:        []cubin.ParamInfo{ptr(0), ptr(8), scalar64(16)},
				RegsPerThread: 8, Code: code(KernelCopy),
			},
			{
				Name:      KernelReduceSum,
				Params:    []cubin.ParamInfo{ptr(0), ptr(8), scalar32(16)},
				SharedMem: 1024, RegsPerThread: 16, Code: code(KernelReduceSum),
			},
			{
				Name: KernelPrefill,
				Params: []cubin.ParamInfo{
					ptr(0), ptr(8), ptr(16), ptr(24),
					scalar32(32), scalar32(36), scalar32(40),
				},
				SharedMem: 4096, RegsPerThread: 64, Code: code(KernelPrefill),
			},
			{
				Name: KernelDecodeStep,
				Params: []cubin.ParamInfo{
					ptr(0), ptr(8), ptr(16),
					scalar32(24), scalar64(32), scalar32(40), scalar32(44),
				},
				RegsPerThread: 40, Code: code(KernelDecodeStep),
			},
		},
	}
}

// An ArgBuffer assembles a raw kernel argument buffer with the
// little-endian layout device code expects.
type ArgBuffer struct {
	buf []byte
}

// NewArgBuffer returns an empty argument buffer.
func NewArgBuffer() *ArgBuffer { return &ArgBuffer{} }

// Ptr appends a device pointer at the next 8-byte boundary.
func (a *ArgBuffer) Ptr(p gpu.Ptr) *ArgBuffer { return a.u64(uint64(p)) }

// U64 appends a 64-bit scalar at the next 8-byte boundary.
func (a *ArgBuffer) U64(v uint64) *ArgBuffer { return a.u64(v) }

// I32 appends a 32-bit scalar at the next 4-byte boundary.
func (a *ArgBuffer) I32(v int32) *ArgBuffer { return a.u32(uint32(v)) }

// U32 appends a 32-bit scalar at the next 4-byte boundary.
func (a *ArgBuffer) U32(v uint32) *ArgBuffer { return a.u32(v) }

func (a *ArgBuffer) align(n int) {
	for len(a.buf)%n != 0 {
		a.buf = append(a.buf, 0)
	}
}

func (a *ArgBuffer) u32(v uint32) *ArgBuffer {
	a.align(4)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	a.buf = append(a.buf, b[:]...)
	return a
}

func (a *ArgBuffer) u64(v uint64) *ArgBuffer {
	a.align(8)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	a.buf = append(a.buf, b[:]...)
	return a
}

// Bytes returns the assembled buffer.
func (a *ArgBuffer) Bytes() []byte { return a.buf }

// Reset empties the buffer for reuse, keeping its storage: a slice
// Bytes returned earlier is overwritten by the next assembly.
func (a *ArgBuffer) Reset() *ArgBuffer {
	a.buf = a.buf[:0]
	return a
}
