package cricket

import (
	"context"
	"fmt"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/obs"
	"cricket/internal/xdr"
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
// twin. A MEMCPY_DTOH entry fails in it (see cricket.x).
func (c *Client) BatchExec(entries []BatchEntry) ([]int32, error) {
	return c.batchExec(entries, nil, nil, false)
}

// batchExec is BatchExec decoding the statuses into sts, which is
// grown when short and returned, so Session's flushes reuse one. With
// read the batch goes as BATCH_EXEC_READ, and the bytes of its
// successful MEMCPY_DTOH entries land in dst, packed in entry order: a
// read is then one entry of the flush it closes rather than a round
// trip of its own. Session flushes its queue through here.
func (c *Client) batchExec(entries []BatchEntry, sts []int32, dst []byte, read bool) ([]int32, error) {
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
	proc := uint32(ProcBatchExec)
	if read {
		proc = ProcBatchExecRead
	}
	var data []byte
	err := c.charge(payload > 0 || read, 1, func(ctx context.Context) error {
		return c.rpc.Do(ctx, proc, func(e *xdr.Encoder) error {
			return (&BatchArgs{Entries: entries}).MarshalXDR(e)
		}, func(d *xdr.Decoder) (err error) {
			if sts, err = decodeStatuses(d, sts); err == nil && read {
				data, err = d.OpaqueInto(dst)
			}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	if len(sts) != len(entries) {
		return nil, fmt.Errorf("cricket: batch reply carries %d statuses for %d entries", len(sts), len(entries))
	}
	var accepted, produced uint64
	for i, st := range sts {
		if st != 0 {
			continue
		}
		switch entries[i].Op {
		case BatchOpMemcpyHtod:
			accepted += uint64(len(entries[i].Data))
		case BatchOpMemcpyDtoh:
			if read {
				produced += entries[i].N
			}
		}
	}
	if read && (uint64(len(data)) != produced || len(data) > len(dst)) {
		return nil, fmt.Errorf("cricket: batch reply carries %d read bytes for %d read, into a %d-byte buffer", len(data), produced, len(dst))
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
				Err: sts[i],
			})
		}
	}
	if accepted > 0 || produced > 0 {
		c.mu.Lock()
		c.stats.BytesToDevice += accepted
		c.stats.BytesFromDevice += produced
		c.mu.Unlock()
	}
	return sts, nil
}

// decodeStatuses decodes a batch reply's status vector into sts,
// growing it when short.
func decodeStatuses(d *xdr.Decoder, sts []int32) ([]int32, error) {
	n, err := d.ArrayLen(4)
	if err != nil {
		return sts, err
	}
	if cap(sts) < n {
		sts = make([]int32, n)
	}
	sts = sts[:n]
	for i := range sts {
		if sts[i], err = d.Int32(); err != nil {
			return sts, err
		}
	}
	return sts, nil
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
