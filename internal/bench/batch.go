package bench

import (
	"fmt"

	"cricket/internal/core"
	"cricket/internal/cricket"
	"cricket/internal/cubin"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
)

// A BatchPoint is one (platform, batch size) measurement of the
// batching ablation: the Fig 6c kernel-launch microbenchmark run with
// the session's BATCH_EXEC queue set to the given size.
type BatchPoint struct {
	Platform string `json:"platform"`
	// Batch is the queue threshold; 0 means batching disabled (every
	// launch is its own RPC, the seed behaviour).
	Batch int `json:"batch"`
	// CallsPerSec is launches per simulated second, including the
	// final synchronize that drains the queue.
	CallsPerSec float64 `json:"calls_per_sec"`
	// TimeToSyncSec is the simulated time from the first launch until
	// cudaDeviceSynchronize returns — the latency an application
	// actually observes, so queueing cannot hide cost past the sync.
	TimeToSyncSec float64 `json:"time_to_sync_sec"`
}

// DefaultBatchSizes is the published sweep: unbatched plus powers of
// two through 256.
var DefaultBatchSizes = []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// AblationBatch sweeps the session batch size over the Fig 6c
// kernel-launch microbenchmark on every guest platform. Each point
// issues `calls` launches of the builtin vectorAdd kernel and then
// synchronizes, so the measured window always covers the final queue
// drain. calls<=0 selects 100,000 (the paper's count); sizes==nil
// selects DefaultBatchSizes.
func AblationBatch(calls int, sizes []int) ([]BatchPoint, error) {
	if calls <= 0 {
		calls = 100_000
	}
	if sizes == nil {
		sizes = DefaultBatchSizes
	}
	var points []BatchPoint
	for _, p := range guest.All() {
		for _, batch := range sizes {
			pt, err := batchPoint(p, batch, calls)
			if err != nil {
				return nil, fmt.Errorf("%s, batch %d: %w", p.Name, batch, err)
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// batchPoint measures one platform at one batch size, on a fresh
// single-A100 cluster and a session-backed client (Session owns the
// BATCH_EXEC queue).
func batchPoint(p guest.Platform, batch, calls int) (BatchPoint, error) {
	var pt BatchPoint
	cl := core.NewCluster()
	defer cl.Close()
	vg, err := cl.ConnectSession(p, cricket.Options{Batch: batch})
	if err != nil {
		return pt, err
	}
	defer vg.Close()

	var fb cubin.FatBinary
	fb.AddImage(cuda.BuiltinImage(80), true)
	mod, err := vg.LoadModule(fb.Encode())
	if err != nil {
		return pt, err
	}
	f, err := mod.Function(cuda.KernelVectorAdd)
	if err != nil {
		return pt, err
	}
	const n = 256
	a, err := vg.Alloc(n * 4)
	if err != nil {
		return pt, err
	}
	b, err := vg.Alloc(n * 4)
	if err != nil {
		return pt, err
	}
	out, err := vg.Alloc(n * 4)
	if err != nil {
		return pt, err
	}
	grid := gpu.Dim3{X: 1, Y: 1, Z: 1}
	block := gpu.Dim3{X: 256, Y: 1, Z: 1}
	args := cuda.NewArgBuffer().Ptr(a.Ptr()).Ptr(b.Ptr()).Ptr(out.Ptr()).I32(n).Bytes()
	// Verify one full launch, then replay the sweep timing-only.
	if err := vg.Launch(f, grid, block, 0, args); err != nil {
		return pt, err
	}
	if err := vg.Synchronize(); err != nil {
		return pt, err
	}
	cl.SetTimingOnly(true)
	defer cl.SetTimingOnly(false)

	start := vg.Now()
	for i := 0; i < calls; i++ {
		if err := vg.Launch(f, grid, block, 0, args); err != nil {
			return pt, err
		}
	}
	// The sync point drains the queue and surfaces any deferred
	// batch error, CUDA-style.
	if err := vg.Synchronize(); err != nil {
		return pt, err
	}
	elapsed := vg.Now() - start
	return BatchPoint{
		Platform:      p.Name,
		Batch:         batch,
		CallsPerSec:   float64(calls) / elapsed.Seconds(),
		TimeToSyncSec: elapsed.Seconds(),
	}, nil
}

// BatchSpeedup reports the calls/s ratio of the best measured point at
// batch >= minBatch over the unbatched (batch 0) point for one
// platform. It returns 0 if either side is missing.
func BatchSpeedup(points []BatchPoint, platform string, minBatch int) float64 {
	var base, best float64
	for _, pt := range points {
		if pt.Platform != platform {
			continue
		}
		if pt.Batch == 0 {
			base = pt.CallsPerSec
		} else if pt.Batch >= minBatch && pt.CallsPerSec > best {
			best = pt.CallsPerSec
		}
	}
	if base == 0 {
		return 0
	}
	return best / base
}

// RenderBatch formats the ablation grouped by platform.
func RenderBatch(points []BatchPoint) string {
	out := "Batching ablation: kernel-launch calls/s by batch size\n"
	last := ""
	for _, pt := range points {
		if pt.Platform != last {
			out += fmt.Sprintf("  %s\n", pt.Platform)
			last = pt.Platform
		}
		label := fmt.Sprintf("batch %d", pt.Batch)
		if pt.Batch == 0 {
			label = "unbatched"
		}
		out += fmt.Sprintf("    %-10s %14.0f calls/s   (%.3fs to sync)\n",
			label, pt.CallsPerSec, pt.TimeToSyncSec)
	}
	return out
}
