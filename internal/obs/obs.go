// Package obs provides per-call observability for the Cricket RPC
// stack: 64-bit call IDs minted on the client and propagated to the
// server inside the ONC RPC credential, per-procedure latency
// histograms, and stage-level spans collected in a bounded ring
// buffer and exportable as JSON.
//
// Observability is disabled by default. Every method on a nil
// *Collector is a no-op, so call sites guard their hot paths with a
// single nil check and pay nothing — no clock reads, no allocations —
// when tracing is off. The record paths themselves (Histogram.Observe,
// Ring.Record) are allocation-free so an enabled collector does not
// disturb zero-alloc pins on the paths it instruments.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Side distinguishes where a span was recorded.
type Side uint8

// Span sides.
const (
	SideClient Side = iota
	SideServer
)

func (s Side) String() string {
	switch s {
	case SideClient:
		return "client"
	case SideServer:
		return "server"
	}
	return fmt.Sprintf("side(%d)", uint8(s))
}

// MarshalJSON renders the side as its name.
func (s Side) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Stage names the portion of a call a span covers.
type Stage uint8

// Span stages. StageCall is a whole logical call as seen by the
// caller; the others attribute slices of it.
const (
	StageCall    Stage = iota // full round trip (client) or batch entry
	StageEncode               // argument marshalling on the client
	StageWire                 // write + server processing + reply receipt
	StageDecode               // reply unmarshalling on the client
	StageRuntime              // server-side dispatch into the runtime
	StageSched                // scheduler bookkeeping
)

func (s Stage) String() string {
	switch s {
	case StageCall:
		return "call"
	case StageEncode:
		return "encode"
	case StageWire:
		return "wire"
	case StageDecode:
		return "decode"
	case StageRuntime:
		return "runtime"
	case StageSched:
		return "sched"
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// MarshalJSON renders the stage as its name.
func (s Stage) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// A Span is one timed slice of a call. Client and server spans of the
// same logical call share a CallID; spans for entries of one
// BATCH_EXEC record additionally carry the entry index.
type Span struct {
	CallID uint64 `json:"call_id"`
	Entry  int32  `json:"entry"` // batch entry index; -1 for a whole call
	Proc   uint32 `json:"proc"`
	Name   string `json:"name,omitempty"` // procedure name, filled at export
	Side   Side   `json:"side"`
	Stage  Stage  `json:"stage"`
	Start  int64  `json:"start_ns"` // nanoseconds since collector start
	Dur    int64  `json:"dur_ns"`
	Sim    int64  `json:"sim_ns,omitempty"` // simulated device time, when known
	Err    int32  `json:"err"`              // in-band status code (CUDA error or accept stat)
}

// Config configures a Collector.
type Config struct {
	// Procs is the size of the per-procedure histogram tables
	// (procedure numbers at or above it are dropped). Zero means 64.
	Procs int
	// RingSize bounds the trace ring. Zero means 4096 spans.
	RingSize int
	// ProcName renders procedure numbers in exports. Nil prints the
	// raw number.
	ProcName func(uint32) string
}

// A Collector mints call IDs and gathers histograms and spans for one
// client or server. All methods are safe for concurrent use and are
// no-ops on a nil receiver.
type Collector struct {
	ids      atomic.Uint64
	client   *HistSet
	server   *HistSet
	device   *HistSet
	ring     *Ring
	procName func(uint32) string
	start    time.Time
}

// New returns a Collector with the given configuration.
func New(cfg Config) *Collector {
	if cfg.Procs <= 0 {
		cfg.Procs = 64
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 4096
	}
	return &Collector{
		client:   NewHistSet(cfg.Procs),
		server:   NewHistSet(cfg.Procs),
		device:   NewHistSet(cfg.Procs),
		ring:     NewRing(cfg.RingSize),
		procName: cfg.ProcName,
		start:    time.Now(),
	}
}

// NextID mints a fresh nonzero call ID. A nil collector returns 0,
// which propagates as "untraced".
func (c *Collector) NextID() uint64 {
	if c == nil {
		return 0
	}
	return c.ids.Add(1)
}

// Now returns nanoseconds since the collector started, for Span.Start.
func (c *Collector) Now() int64 {
	if c == nil {
		return 0
	}
	return int64(time.Since(c.start))
}

// ObserveClient records a client-observed round-trip latency for proc.
func (c *Collector) ObserveClient(proc uint32, d time.Duration) {
	if c == nil {
		return
	}
	c.client.Observe(proc, d)
}

// ObserveServer records a server-side handling time for proc.
func (c *Collector) ObserveServer(proc uint32, d time.Duration) {
	if c == nil {
		return
	}
	c.server.Observe(proc, d)
}

// ObserveDevice records a simulated device/runtime time for proc.
func (c *Collector) ObserveDevice(proc uint32, d time.Duration) {
	if c == nil {
		return
	}
	c.device.Observe(proc, d)
}

// ServerMerged returns the union snapshot of every server-side
// procedure histogram: one distribution of all dispatch latencies.
// Sampling it on an interval and diffing with HistSnapshot.Sub gives
// the windowed view the admission controller feeds on. A nil
// collector returns the zero snapshot.
func (c *Collector) ServerMerged() HistSnapshot {
	if c == nil {
		return HistSnapshot{}
	}
	return c.server.Merged()
}

// RecordSpan appends a span to the trace ring.
func (c *Collector) RecordSpan(s Span) {
	if c == nil {
		return
	}
	c.ring.Record(s)
}

// Spans returns the retained spans in chronological order, with
// procedure names resolved.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	spans := c.ring.Snapshot()
	if c.procName != nil {
		for i := range spans {
			spans[i].Name = c.procName(spans[i].Proc)
		}
	}
	return spans
}

// ProcStats summarises one procedure's histogram for export.
type ProcStats struct {
	Proc   string  `json:"proc"`
	Count  uint64  `json:"count"`
	MinUS  float64 `json:"min_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`
	MeanUS float64 `json:"mean_us"`
}

// Metrics is the exportable summary of every non-empty histogram.
type Metrics struct {
	Client []ProcStats `json:"client,omitempty"`
	Server []ProcStats `json:"server,omitempty"`
	Device []ProcStats `json:"device,omitempty"`
}

// Metrics summarises all histograms. A nil collector returns the zero
// Metrics.
func (c *Collector) Metrics() Metrics {
	if c == nil {
		return Metrics{}
	}
	return Metrics{
		Client: c.procStats(c.client),
		Server: c.procStats(c.server),
		Device: c.procStats(c.device),
	}
}

func (c *Collector) procStats(set *HistSet) []ProcStats {
	snaps := set.Snapshot()
	procs := make([]uint32, 0, len(snaps))
	for p := range snaps {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	out := make([]ProcStats, 0, len(procs))
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, p := range procs {
		snap := snaps[p]
		name := fmt.Sprintf("proc_%d", p)
		if c.procName != nil {
			name = c.procName(p)
		}
		out = append(out, ProcStats{
			Proc:   name,
			Count:  snap.Count,
			MinUS:  us(snap.Min),
			P50US:  us(snap.Quantile(0.50)),
			P90US:  us(snap.Quantile(0.90)),
			P99US:  us(snap.Quantile(0.99)),
			MaxUS:  us(snap.Max),
			MeanUS: us(snap.Mean()),
		})
	}
	return out
}

// WriteMetricsJSON writes the histogram summary as indented JSON.
func (c *Collector) WriteMetricsJSON(w io.Writer) error {
	data, err := json.MarshalIndent(c.Metrics(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteTraceJSON writes the retained spans as indented JSON.
func (c *Collector) WriteTraceJSON(w io.Writer) error {
	spans := c.Spans()
	if spans == nil {
		spans = []Span{}
	}
	data, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
