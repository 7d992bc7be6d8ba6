package apps

import (
	"testing"

	"cricket/internal/core"
	"cricket/internal/cricket"
	"cricket/internal/gpu"
	"cricket/internal/guest"
)

func newVG(t testing.TB, p guest.Platform) *core.VirtualGPU {
	t.Helper()
	cl := core.NewCluster()
	vg, err := cl.Connect(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		vg.Close()
		cl.Close()
	})
	return vg
}

// small app configurations for functional tests.
func smallMatrixMul() MatrixMul {
	return MatrixMul{HA: 64, WA: 32, WB: 64, Iterations: 10}
}

func smallHistogram() Histogram {
	return Histogram{DataBytes: 1 << 20, ChunkBytes: 128 << 10, Passes: 3}
}

func smallSolver() LinearSolver {
	return LinearSolver{N: 48, Iterations: 3}
}

func TestMatrixMulVerifiesOnAllPlatforms(t *testing.T) {
	for _, p := range guest.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			vg := newVG(t, p)
			res, err := smallMatrixMul().Run(vg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatal("matrixMul result not verified")
			}
			if res.Total() <= 0 || res.ExecTime <= 0 {
				t.Fatalf("times: %+v", res)
			}
		})
	}
}

func TestHistogramVerifiesOnAllPlatforms(t *testing.T) {
	for _, p := range guest.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			vg := newVG(t, p)
			res, err := smallHistogram().Run(vg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatal("histogram result not verified")
			}
		})
	}
}

func TestLinearSolverVerifiesOnAllPlatforms(t *testing.T) {
	for _, p := range guest.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			vg := newVG(t, p)
			res, err := smallSolver().Run(vg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatal("solver result not verified")
			}
		})
	}
}

func TestBandwidthBothDirections(t *testing.T) {
	for _, dir := range []Direction{HostToDevice, DeviceToHost} {
		vg := newVG(t, guest.NativeRust())
		res, err := BandwidthTest{Bytes: 4 << 20, Runs: 3, Direction: dir}.Run(vg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("%v transfer not verified", dir)
		}
		if res.MiBps <= 0 {
			t.Fatalf("%v bandwidth = %g", dir, res.MiBps)
		}
	}
}

// TestTraceProfiles verifies the call-count arithmetic against the
// paper's reported traces: calls(matrixMul) = iterations + 41, so the
// paper's 100,000-iteration run issues 100,041; calls(histogram) =
// passes*(chunks+1) + 53 = 80,033 at paper scale; calls(solver) =
// 20*iterations + 47 = 20,047.
func TestTraceProfiles(t *testing.T) {
	t.Run("matrixMul", func(t *testing.T) {
		vg := newVG(t, guest.NativeRust())
		cfg := MatrixMul{HA: 64, WA: 32, WB: 64, Iterations: 25}
		res, err := cfg.Run(vg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Stats.APICalls, uint64(25+41); got != want {
			t.Errorf("calls = %d, want %d", got, want)
		}
		if paper := uint64(100_000 + 41); paper != 100_041 {
			t.Errorf("paper-scale formula gives %d", paper)
		}
		// Transfer volume at default dims must match 1.95 MiB
		// regardless of iteration count; check with small iterations
		// at full dims.
		vg2 := newVG(t, guest.NativeRust())
		res2, err := MatrixMul{Iterations: 2}.Run(vg2)
		if err != nil {
			t.Fatal(err)
		}
		total := res2.Stats.BytesToDevice + res2.Stats.BytesFromDevice
		if total != 2_048_000 {
			t.Errorf("transfers = %d bytes, want 2048000 (1.95 MiB)", total)
		}
	})
	t.Run("histogram", func(t *testing.T) {
		vg := newVG(t, guest.NativeRust())
		cfg := Histogram{DataBytes: 1 << 20, ChunkBytes: 256 << 10, Passes: 4} // 4 chunks
		res, err := cfg.Run(vg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Stats.APICalls, uint64(4*(4+1)+53); got != want {
			t.Errorf("calls = %d, want %d", got, want)
		}
		if paper := uint64(620*(128+1) + 53); paper != 80_033 {
			t.Errorf("paper-scale formula gives %d", paper)
		}
	})
	t.Run("linearSolver", func(t *testing.T) {
		vg := newVG(t, guest.NativeRust())
		cfg := LinearSolver{N: 32, Iterations: 5}
		res, err := cfg.Run(vg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Stats.APICalls, uint64(20*5+47); got != want {
			t.Errorf("calls = %d, want %d", got, want)
		}
		if paper := uint64(20*1000 + 47); paper != 20_047 {
			t.Errorf("paper-scale formula gives %d", paper)
		}
		// Transfer volume at paper dims: 6.05 GiB (paper: 6.07 GiB).
		perIter := uint64(900*900*8+900*8) + uint64(4+900*8+900*4)
		if gib := float64(perIter*1000) / (1 << 30); gib < 6.0 || gib > 6.1 {
			t.Errorf("paper-scale transfers = %.3f GiB", gib)
		}
	})
}

// TestTimingReplayMatchesFullExecutionTiming asserts the documented
// invariant of timing-only mode: simulated durations are identical
// with and without functional execution.
func TestTimingReplayMatchesFullExecutionTiming(t *testing.T) {
	run := func(replay bool) (total, init int64, verified bool) {
		vg := newVG(t, guest.RustyHermit())
		cfg := smallMatrixMul()
		cfg.TimingReplay = replay
		res, err := cfg.Run(vg)
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Total()), int64(res.InitTime), res.Verified
	}
	fullTotal, fullInit, fullOK := run(false)
	replayTotal, replayInit, replayOK := run(true)
	if !fullOK || !replayOK {
		t.Fatal("verification failed")
	}
	if fullTotal != replayTotal || fullInit != replayInit {
		t.Fatalf("timing diverges: full %d/%d, replay %d/%d", fullTotal, fullInit, replayTotal, replayInit)
	}
}

// TestHistogramLanguageGap reproduces the Fig 5c finding at reduced
// scale: the C implementation is substantially slower than Rust, and
// the gap comes mostly from initialization.
func TestHistogramLanguageGap(t *testing.T) {
	cfg := Histogram{DataBytes: 8 << 20, ChunkBytes: 512 << 10, Passes: 40, TimingReplay: true}
	vgC := newVG(t, guest.NativeC())
	resC, err := cfg.Run(vgC)
	if err != nil {
		t.Fatal(err)
	}
	vgR := newVG(t, guest.NativeRust())
	resR, err := cfg.Run(vgR)
	if err != nil {
		t.Fatal(err)
	}
	if resC.Total() <= resR.Total() {
		t.Fatalf("C (%v) not slower than Rust (%v)", resC.Total(), resR.Total())
	}
	if resC.InitTime <= resR.InitTime {
		t.Fatal("C init not slower than Rust init")
	}
	// Excluding init the gap shrinks to the launch-path difference.
	gapTotal := float64(resC.Total()) / float64(resR.Total())
	gapExec := float64(resC.ExecTime) / float64(resR.ExecTime)
	if gapExec >= gapTotal {
		t.Fatalf("init should widen the gap: exec %.3f, total %.3f", gapExec, gapTotal)
	}
	t.Logf("C/Rust: total %.3f, excluding init %.3f", gapTotal, gapExec)
}

// TestLinearSolverNumericsAcrossSizes property-checks the LU solver
// against known solutions for several sizes.
func TestLinearSolverNumericsAcrossSizes(t *testing.T) {
	for _, n := range []int{8, 16, 33, 64} {
		vg := newVG(t, guest.NativeRust())
		res, err := LinearSolver{N: n, Iterations: 1, Seed: int64(n)}.Run(vg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Verified {
			t.Fatalf("n=%d: not verified", n)
		}
	}
}

func TestMatrixMulRejectsBadDims(t *testing.T) {
	vg := newVG(t, guest.NativeRust())
	if _, err := (MatrixMul{HA: 33, WA: 32, WB: 64, Iterations: 1}).Run(vg); err == nil {
		t.Fatal("non-multiple-of-32 dims accepted")
	}
}

func TestHistogramRejectsBadChunking(t *testing.T) {
	vg := newVG(t, guest.NativeRust())
	if _, err := (Histogram{DataBytes: 1000, ChunkBytes: 333, Passes: 1}).Run(vg); err == nil {
		t.Fatal("non-divisible chunking accepted")
	}
}

// TestBandwidthAsymmetryOnHermit asserts the §4.2 finding at the
// application level: RustyHermit's device-to-host (network-read) path
// is substantially slower than its host-to-device path, while native
// Linux is symmetric.
func TestBandwidthAsymmetryOnHermit(t *testing.T) {
	const bytes = 16 << 20
	measure := func(p guest.Platform, dir Direction) float64 {
		vg := newVG(t, p)
		res, err := BandwidthTest{Bytes: bytes, Runs: 2, Direction: dir}.Run(vg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatal("transfer not verified")
		}
		return res.MiBps
	}
	hermitH2D := measure(guest.RustyHermit(), HostToDevice)
	hermitD2H := measure(guest.RustyHermit(), DeviceToHost)
	nativeH2D := measure(guest.NativeRust(), HostToDevice)
	nativeD2H := measure(guest.NativeRust(), DeviceToHost)
	t.Logf("Hermit H2D=%.0f D2H=%.0f; native H2D=%.0f D2H=%.0f MiB/s",
		hermitH2D, hermitD2H, nativeH2D, nativeD2H)
	if hermitD2H >= hermitH2D {
		t.Errorf("Hermit read path (%.0f) not slower than write path (%.0f)", hermitD2H, hermitH2D)
	}
	ratio := nativeH2D / nativeD2H
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("native asymmetric: %.2f", ratio)
	}
}

// TestAppsBatchedBitIdentical runs every registered proxy application
// with the session's BATCH_EXEC queue on and off: results must be
// bit-identical (same output digest) and the per-run Stats must not
// change — the batching layer is a pure transport optimization. New
// workloads added to the registry are covered automatically.
func TestAppsBatchedBitIdentical(t *testing.T) {
	for _, app := range Registry() {
		name, run := app.Name, app.Run
		t.Run(name, func(t *testing.T) {
			exec := func(opts cricket.Options) Result {
				cl := core.NewCluster()
				defer cl.Close()
				vg, err := cl.ConnectSession(guest.RustyHermit(), opts)
				if err != nil {
					t.Fatal(err)
				}
				defer vg.Close()
				res, err := run(vg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Verified {
					t.Fatal("result not verified")
				}
				return res
			}
			plain := exec(cricket.Options{})
			batched := exec(cricket.Options{Batch: 32})
			if plain.OutputDigest == 0 || batched.OutputDigest == 0 {
				t.Fatal("output digest not recorded")
			}
			if plain.OutputDigest != batched.OutputDigest {
				t.Fatalf("batched output differs: %#x vs %#x", batched.OutputDigest, plain.OutputDigest)
			}
			if plain.Stats != batched.Stats {
				t.Fatalf("stats diverge:\n  unbatched %+v\n  batched   %+v", plain.Stats, batched.Stats)
			}
		})
	}
}

// TestDecodeServiceVerifiesOnAllPlatforms checks the serving workload
// end to end: every generated token must match the host reference
// transition, and the digest must be deterministic for a given seed.
func TestDecodeServiceVerifiesOnAllPlatforms(t *testing.T) {
	var first uint64
	for _, p := range guest.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			vg := newVG(t, p)
			cfg := DecodeService{Prompts: 2, TokensPer: 32, PromptLen: 128, KVBytes: 512, WeightWords: 256}
			res, err := cfg.Run(vg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatal("decode token stream not verified against host reference")
			}
			if res.OutputDigest == 0 {
				t.Fatal("no output digest recorded")
			}
			if first == 0 {
				first = res.OutputDigest
			} else if res.OutputDigest != first {
				t.Fatalf("digest %#x differs across platforms (want %#x)", res.OutputDigest, first)
			}
		})
	}
}

// TestDecodeServiceTrafficShape pins the serving profile: the decode
// loop dominates the call count with tiny launches (one launch + one
// 8-byte readback per token), unlike the bulk-transfer batch samples.
func TestDecodeServiceTrafficShape(t *testing.T) {
	vg := newVG(t, guest.NativeRust())
	cfg := DecodeService{Prompts: 3, TokensPer: 40, PromptLen: 128, KVBytes: 512, WeightWords: 256}
	res, err := cfg.Run(vg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("not verified")
	}
	// Per token: 1 launch + 1 DtoH. Per prompt additionally: 3 allocs,
	// 1 HtoD, 1 prefill launch, 1 sync, 1 readback, 3 frees.
	minCalls := uint64(cfg.Prompts * cfg.TokensPer * 2)
	if res.Stats.APICalls < minCalls {
		t.Fatalf("APICalls = %d, want >= %d (decode-dominated)", res.Stats.APICalls, minCalls)
	}
	// Streaming readbacks: 8 bytes per token plus the prefill states.
	wantDown := uint64(cfg.Prompts * (cfg.TokensPer + 1) * 8)
	if res.Stats.BytesFromDevice != wantDown {
		t.Fatalf("BytesFromDevice = %d, want %d (8 B per streamed token)", res.Stats.BytesFromDevice, wantDown)
	}
}

// TestAppsFailFast asserts that apps surface launch failures instead
// of silently producing wrong results: a cluster whose device lacks
// memory makes the app error out.
func TestAppsFailFast(t *testing.T) {
	cl := core.NewCluster(gpu.Spec{
		Name: "tiny", Arch: 80, MemBytes: 1 << 16, MaxThreadsPerBlock: 1024,
		MaxGridDim: 1 << 20, MaxSharedMemPerBlock: 1 << 10,
		MemBandwidth: 1e9, ClockHz: 1e9, SMs: 1, CoresPerSM: 1,
	})
	defer cl.Close()
	vg, err := cl.Connect(guest.NativeRust())
	if err != nil {
		t.Fatal(err)
	}
	defer vg.Close()
	if _, err := smallHistogram().Run(vg); err == nil {
		t.Fatal("histogram on a 64 KiB device succeeded")
	}
}
