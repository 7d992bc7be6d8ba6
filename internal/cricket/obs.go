package cricket

import (
	"strconv"
	"time"

	"cricket/internal/obs"
	"cricket/internal/oncrpc"
)

// This file glues the generic observability package to the Cricket
// protocol: procedure naming, collector construction, and the
// oncrpc trace hooks that turn RPC-layer timings into per-procedure
// histograms and joined client/server spans.

// obsProcs sizes the per-procedure histogram tables: the program's
// procedures plus the pseudo-procedures for scheduler and lease
// bookkeeping.
const obsProcs = int(ProcLease) + 1

// ProcSched is a pseudo-procedure number (the first one past the RPC
// program's range) under which scheduler bookkeeping time is recorded.
const ProcSched = uint32(len(RpcCdVersProcNames))

// ProcLease is a pseudo-procedure number under which lease-sweeper
// reclamation work is recorded (attach/renew/detach RPCs use their
// own procedure numbers; the sweeper runs outside any call).
const ProcLease = ProcSched + 1

// ProcName returns the RPCL name of a Cricket procedure number, from
// the table rpcgen emits for cricket.x.
func ProcName(proc uint32) string {
	switch {
	case proc < ProcSched && RpcCdVersProcNames[proc] != "":
		return RpcCdVersProcNames[proc]
	case proc == ProcSched:
		return "SCHED"
	case proc == ProcLease:
		return "LEASE_SWEEP"
	}
	return "PROC_" + strconv.FormatUint(uint64(proc), 10)
}

// batchProc maps a batch entry op to the logical procedure it stands
// in for, so batched and unbatched calls share histogram rows.
func batchProc(op int32) uint32 {
	switch op {
	case BatchOpLaunch:
		return ProcCuLaunchKernel
	case BatchOpMemcpyHtod:
		return ProcCudaMemcpyHtod
	case BatchOpMemset:
		return ProcCudaMemset
	case BatchOpEventRecord:
		return ProcCudaEventRecord
	case BatchOpStreamSync:
		return ProcCudaStreamSynchronize
	case BatchOpMemcpyDtoh:
		return ProcCudaMemcpyDtoh
	case BatchOpSetDevice:
		return ProcCudaSetDevice
	}
	return ProcBatchExec
}

// NewCollector returns an obs.Collector sized and named for the
// Cricket protocol. ringSize <= 0 selects the package default.
func NewCollector(ringSize int) *obs.Collector {
	return obs.New(obs.Config{Procs: obsProcs, RingSize: ringSize, ProcName: ProcName})
}

// clientTrace adapts a collector to the oncrpc client hooks: every
// RPC yields a client histogram sample and a call span with its
// encode/wire/decode breakdown.
func clientTrace(col *obs.Collector) *oncrpc.ClientTrace {
	return &oncrpc.ClientTrace{
		Begin: func(proc uint32) uint64 { return col.NextID() },
		End: func(proc uint32, id uint64, st oncrpc.CallStages, err error) {
			total := st.Total()
			col.ObserveClient(proc, total)
			end := col.Now()
			code := int32(0)
			if err != nil {
				code = -1 // transport/protocol failure, not an in-band CUDA code
			}
			col.RecordSpan(obs.Span{
				CallID: id, Entry: -1, Proc: proc, Side: obs.SideClient,
				Stage: obs.StageCall, Start: end - int64(total), Dur: int64(total), Err: code,
			})
			if st.Encode > 0 {
				col.RecordSpan(obs.Span{
					CallID: id, Entry: -1, Proc: proc, Side: obs.SideClient,
					Stage: obs.StageEncode, Start: end - int64(total), Dur: int64(st.Encode), Err: code,
				})
			}
			if st.Wire > 0 {
				col.RecordSpan(obs.Span{
					CallID: id, Entry: -1, Proc: proc, Side: obs.SideClient,
					Stage: obs.StageWire, Start: end - int64(st.Wire) - int64(st.Decode), Dur: int64(st.Wire), Err: code,
				})
			}
			if st.Decode > 0 {
				col.RecordSpan(obs.Span{
					CallID: id, Entry: -1, Proc: proc, Side: obs.SideClient,
					Stage: obs.StageDecode, Start: end - int64(st.Decode), Dur: int64(st.Decode), Err: code,
				})
			}
		},
	}
}

// serverTrace adapts the server's collector to the oncrpc dispatch
// hook: every dispatched RPC yields a server histogram sample and a
// runtime-stage span joined to the client by the propagated id.
func (s *Server) serverTrace() *oncrpc.ServerTrace {
	return &oncrpc.ServerTrace{
		Done: func(proc uint32, id uint64, d time.Duration, stat oncrpc.AcceptStat) {
			col := s.collector.Load()
			if col == nil {
				return
			}
			col.ObserveServer(proc, d)
			col.RecordSpan(obs.Span{
				CallID: id, Entry: -1, Proc: proc, Side: obs.SideServer,
				Stage: obs.StageRuntime, Start: col.Now() - int64(d), Dur: int64(d),
				Err: int32(stat),
			})
		},
	}
}
