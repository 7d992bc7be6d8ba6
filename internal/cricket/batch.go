package cricket

import (
	"context"
	"fmt"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/obs"
)

// This file is the client side of batched execution (see cricket.x
// BATCH_EXEC): BatchExec ships a prepared list of asynchronous calls —
// kernel launches, stream copies, memsets, event records, stream-sync
// ordering markers — as one RPC record, amortizing the per-call round
// trip the paper identifies as the dominant unikernel overhead (§5
// "reduce per-call overhead"). A Client is a synchronous stub layer and
// keeps no queue of its own: the one BATCH_EXEC queue, with its flush
// thresholds and deferred-error latch, belongs to Session, which can
// replay it after a transport failure.

// BatchExec ships prepared entries as one BATCH_EXEC record and
// returns the per-entry status vector. Accounting treats each entry
// as one logical API call (and each launch entry as one kernel
// launch), so a batched run reports the same Stats as its unbatched
// twin. Session flushes its queue through here.
func (c *Client) BatchExec(entries []BatchEntry) ([]int32, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	col := c.obs
	if col != nil {
		// Mint a per-entry call id so each logical call inside the
		// batch joins with its server-side span. Minting here (not at
		// enqueue) keeps Session's enqueue hot path free of tracing
		// work. Entries that already carry an id keep it.
		for i := range entries {
			if entries[i].TraceId == 0 {
				entries[i].TraceId = col.NextID()
			}
		}
	}
	var launches, payload uint64
	for i := range entries {
		switch entries[i].Op {
		case BatchOpLaunch:
			launches++
		case BatchOpMemcpyHtod:
			payload += uint64(len(entries[i].Data))
		}
	}
	c.mu.Lock()
	c.stats.APICalls += uint64(len(entries))
	c.stats.KernelLaunches += launches
	c.mu.Unlock()
	// The launch bookkeeping the language profile charges per call
	// (see LaunchKernel) still happens per entry, client-side.
	if c.sim && launches > 0 && c.platform.LaunchExtraNS > 0 {
		c.path.Clock.Advance(time.Duration(launches*uint64(c.platform.LaunchExtraNS)) * time.Nanosecond)
	}
	var t0 time.Time
	if col != nil {
		t0 = time.Now()
	}
	var res BatchResult
	err := c.charge(payload > 0, 1, func(ctx context.Context) (e error) {
		res, e = c.gen.BatchExecContext(ctx, BatchArgs{Entries: entries})
		return
	})
	if err != nil {
		return nil, err
	}
	if len(res.Status) != len(entries) {
		return nil, fmt.Errorf("cricket: batch reply carries %d statuses for %d entries", len(res.Status), len(entries))
	}
	if col != nil {
		// Amortize the batch round trip over its entries so each
		// logical call gets a client histogram sample under the
		// procedure it stands in for, mirroring the per-entry Stats
		// accounting above.
		wall := time.Since(t0)
		share := wall / time.Duration(len(entries))
		end := col.Now()
		for i := range entries {
			proc := batchProc(entries[i].Op)
			col.ObserveClient(proc, share)
			col.RecordSpan(obs.Span{
				CallID: entries[i].TraceId, Entry: int32(i), Proc: proc,
				Side: obs.SideClient, Stage: obs.StageCall,
				Start: end - int64(wall), Dur: int64(share),
				Err: res.Status[i],
			})
		}
	}
	var accepted uint64
	for i, st := range res.Status {
		if st == 0 && entries[i].Op == BatchOpMemcpyHtod {
			accepted += uint64(len(entries[i].Data))
		}
	}
	if accepted > 0 {
		c.mu.Lock()
		c.stats.BytesToDevice += accepted
		c.mu.Unlock()
	}
	return res.Status, nil
}

// MemcpyHtoDAsync implements cudaMemcpyAsync(HostToDevice). A Client
// has no queue to capture the payload into, so it is the synchronous
// copy, which satisfies the async contract trivially.
func (c *Client) MemcpyHtoDAsync(dst gpu.Ptr, data []byte, s cuda.Stream) error {
	return c.MemcpyHtoD(dst, data)
}

// InvalidateTopology drops the cached device-topology answers (see
// Options.CacheTopology). A Session never needs to call it: a
// reconnect builds a fresh Client, so an epoch change invalidates the
// cache structurally.
func (c *Client) InvalidateTopology() {
	c.mu.Lock()
	c.devCountOK = false
	c.props = nil
	c.mu.Unlock()
}
