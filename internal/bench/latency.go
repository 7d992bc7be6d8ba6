package bench

import (
	"cricket/internal/core"
	"cricket/internal/cricket"
	"cricket/internal/cubin"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/obs"
)

// LatencyProfile runs a mixed CUDA workload on the given platform with
// full observability enabled — one collector shared by the client, the
// server, and the device layer — and returns the per-procedure latency
// metrics (p50/p90/p99 and friends) it gathered.
//
// The workload covers the call shapes the paper's evaluation exercises:
// topology queries, alloc/free churn, bulk transfers both ways, and
// kernel launches issued both as synchronous round trips and through
// the BATCH_EXEC pipeline, so batched entries show up under their
// logical procedures.
func LatencyProfile(p guest.Platform, calls int) (obs.Metrics, error) {
	if calls <= 0 {
		calls = 1000
	}
	col := cricket.NewCollector(0)

	cl := core.NewCluster()
	defer cl.Close()
	cl.Cricket.SetObserver(col)

	run := func(opts cricket.Options, batched bool) error {
		opts.Obs = col
		connect := cl.ConnectOpts
		if batched {
			connect = cl.ConnectSession // the queue lives in Session
		}
		vg, err := connect(p, opts)
		if err != nil {
			return err
		}
		defer vg.Close()
		c := vg.Raw()

		for i := 0; i < calls; i++ {
			if _, err := c.GetDeviceCount(); err != nil {
				return err
			}
		}
		for i := 0; i < calls/2; i++ {
			ptr, err := c.Malloc(1 << 16)
			if err != nil {
				return err
			}
			if err := c.Free(ptr); err != nil {
				return err
			}
		}

		var fb cubin.FatBinary
		fb.AddImage(cuda.BuiltinImage(80), true)
		mod, err := vg.LoadModule(fb.Encode())
		if err != nil {
			return err
		}
		f, err := mod.Function(cuda.KernelVectorAdd)
		if err != nil {
			return err
		}
		const n = 256
		a, err := vg.Alloc(n * 4)
		if err != nil {
			return err
		}
		b, err := vg.Alloc(n * 4)
		if err != nil {
			return err
		}
		out, err := vg.Alloc(n * 4)
		if err != nil {
			return err
		}
		host := make([]byte, n*4)
		for i := range host {
			host[i] = byte(i)
		}
		if err := a.Write(host); err != nil {
			return err
		}
		if err := b.Write(host); err != nil {
			return err
		}
		args := cuda.NewArgBuffer().Ptr(a.Ptr()).Ptr(b.Ptr()).Ptr(out.Ptr()).I32(n).Bytes()
		grid := gpu.Dim3{X: 1, Y: 1, Z: 1}
		block := gpu.Dim3{X: 256, Y: 1, Z: 1}
		for i := 0; i < calls; i++ {
			if err := c.LaunchKernel(f, grid, block, 0, 0, args); err != nil {
				return err
			}
		}
		if batched {
			// Drain the queue so every entry's round trip lands in the
			// histograms before the client closes.
			if err := c.DeviceSynchronize(); err != nil {
				return err
			}
		}
		if _, err := out.Read(); err != nil {
			return err
		}
		return nil
	}

	if err := run(cricket.Options{}, false); err != nil {
		return obs.Metrics{}, err
	}
	if err := run(cricket.Options{Batch: 16}, true); err != nil {
		return obs.Metrics{}, err
	}
	return col.Metrics(), nil
}
