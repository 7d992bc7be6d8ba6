package bench

import (
	"fmt"
	"testing"

	"cricket/internal/apps"
	"cricket/internal/core"
	"cricket/internal/cricket"
	"cricket/internal/guest"
)

// This file is the transport ablation: the same bulk transfers and the
// same three applications run over each of the four pluggable
// transports, so the output proves both halves of the transport
// contract — the zero-copy paths are faster on large transfers than
// the socket paths, and every path is bit-preserving (identical app
// digests). The shm measurement additionally pins the client bulk
// path at zero heap allocations per operation.

// A TransportMethod is one transport's row in the ablation.
type TransportMethod struct {
	Method string

	// Simulated large-transfer throughput, host-to-device and
	// device-to-host.
	WriteMiBps float64
	ReadMiBps  float64

	// Output digests of the three paper applications run at reduced,
	// deterministic configurations. All four transports must agree
	// bit for bit.
	MatrixMul    uint64
	Histogram    uint64
	LinearSolver uint64

	// AllocsPerOp is the measured heap allocations per bulk write+read
	// pair on the shared-memory path; -1 for methods where it is not
	// pinned.
	AllocsPerOp float64
}

// TransportResult is the full ablation.
type TransportResult struct {
	Bytes   int // large-transfer size
	Methods []TransportMethod
}

// Violations lists every breached transport invariant; empty means
// the ablation upheld all of them.
func (r TransportResult) Violations() []string {
	var v []string
	byName := map[string]TransportMethod{}
	for _, m := range r.Methods {
		byName[m.Method] = m
	}
	inline, ok := byName[cricket.TransferRPCArgs.String()]
	if !ok {
		return []string{"no inline baseline in results"}
	}
	for _, m := range r.Methods {
		if m.MatrixMul != inline.MatrixMul || m.Histogram != inline.Histogram || m.LinearSolver != inline.LinearSolver {
			v = append(v, fmt.Sprintf("%s app digests differ from inline (transport is not bit-preserving)", m.Method))
		}
	}
	sockets := byName[cricket.TransferParallelSockets.String()]
	for _, name := range []string{cricket.TransferSharedMem.String(), cricket.TransferRDMA.String()} {
		if zc := byName[name]; zc.WriteMiBps <= sockets.WriteMiBps {
			v = append(v, fmt.Sprintf("%s write %.0f MiB/s does not beat parallel sockets %.0f MiB/s",
				name, zc.WriteMiBps, sockets.WriteMiBps))
		}
	}
	if shm := byName[cricket.TransferSharedMem.String()]; shm.AllocsPerOp != 0 {
		v = append(v, fmt.Sprintf("shared-memory bulk path allocates %.1f times per op, want 0", shm.AllocsPerOp))
	}
	return v
}

// transportMethods is the ablation order; inline first so it is the
// digest baseline.
var transportMethods = []cricket.TransferMethod{
	cricket.TransferRPCArgs,
	cricket.TransferParallelSockets,
	cricket.TransferSharedMem,
	cricket.TransferRDMA,
}

// Transport runs the ablation: per method, one large timed write and
// read (simulated clock), the three applications at small
// deterministic configurations, and — on the shared-memory path — an
// allocation count of the bulk write/read pair.
func Transport(bytes int) (TransportResult, error) {
	if bytes <= 0 {
		bytes = 64 << 20
	}
	res := TransportResult{Bytes: bytes}
	for _, m := range transportMethods {
		opts := cricket.Options{Transfer: m, Sockets: 8}
		row := TransportMethod{Method: m.String(), AllocsPerOp: -1}

		err := withVG(guest.NativeC(), opts, func(vg *core.VirtualGPU) error {
			buf, err := vg.Alloc(uint64(bytes))
			if err != nil {
				return err
			}
			data := make([]byte, bytes)
			for i := range data {
				data[i] = byte(i * 11)
			}
			start := vg.Now()
			if err := buf.Write(data); err != nil {
				return err
			}
			wElapsed := vg.Now() - start
			start = vg.Now()
			out, err := buf.Read()
			if err != nil {
				return err
			}
			rElapsed := vg.Now() - start
			for i := range out {
				if out[i] != data[i] {
					return fmt.Errorf("%s: large transfer corrupted at byte %d", m, i)
				}
			}
			row.WriteMiBps = float64(bytes) / (1 << 20) / wElapsed.Seconds()
			row.ReadMiBps = float64(bytes) / (1 << 20) / rElapsed.Seconds()

			if m == cricket.TransferSharedMem {
				// Pin the zero-copy claim: one bulk write plus one
				// read-into on the raw client, steady state. The warmup
				// transfers above already faulted in every lazy
				// structure (ring, scratch, counters).
				raw := vg.Raw()
				p := buf.Ptr()
				chunk := data[:64<<10]
				dst := make([]byte, len(chunk))
				row.AllocsPerOp = testing.AllocsPerRun(16, func() {
					if err := raw.MemcpyHtoD(p, chunk); err != nil {
						panic(err)
					}
					if err := raw.MemcpyDtoHInto(p, dst); err != nil {
						panic(err)
					}
				})
			}
			return nil
		})
		if err != nil {
			return res, fmt.Errorf("%s throughput: %w", m, err)
		}

		// The three applications, one pristine stack each so the call
		// sequences are deterministic per method.
		digests := []struct {
			out *uint64
			run func(vg *core.VirtualGPU) (apps.Result, error)
		}{
			{&row.MatrixMul, func(vg *core.VirtualGPU) (apps.Result, error) {
				return apps.MatrixMul{HA: 32, WA: 32, WB: 32, Iterations: 3}.Run(vg)
			}},
			{&row.Histogram, func(vg *core.VirtualGPU) (apps.Result, error) {
				return apps.Histogram{DataBytes: 1 << 20, ChunkBytes: 128 << 10, Passes: 2, Seed: 1}.Run(vg)
			}},
			{&row.LinearSolver, func(vg *core.VirtualGPU) (apps.Result, error) {
				return apps.LinearSolver{N: 64, Iterations: 2, Seed: 2}.Run(vg)
			}},
		}
		for _, d := range digests {
			err := withVG(guest.NativeC(), opts, func(vg *core.VirtualGPU) error {
				r, err := d.run(vg)
				if err != nil {
					return err
				}
				if !r.Verified {
					return fmt.Errorf("%s on %s: output failed verification", r.App, m)
				}
				*d.out = r.OutputDigest
				return nil
			})
			if err != nil {
				return res, fmt.Errorf("%s apps: %w", m, err)
			}
		}
		res.Methods = append(res.Methods, row)
	}
	return res, nil
}
