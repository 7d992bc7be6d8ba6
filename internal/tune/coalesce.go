package tune

import "time"

// A Coalescer tunes the BATCH_EXEC coalescing thresholds — how many
// entries (and payload bytes) accumulate before a flush — from the
// observed cost of the flushes themselves. The tradeoff it walks:
// bigger batches amortize the fixed per-RPC cost over more entries
// (per-entry latency falls as 1/N toward the marginal cost), but each
// queued entry waits longer for its flush. The controller grows the
// entry threshold geometrically while growth still buys a meaningful
// per-entry improvement, reverts a growth step that made per-entry
// cost worse, and shrinks multiplicatively when flush latency
// inflates over its own long-run average (the server degraded — batch
// size is suddenly too rich for it).
//
// The caller's enqueue hot path never touches the Coalescer: only the
// flush path (which already pays an RPC) calls OnFlush, so the
// 0 allocs/op enqueue property of the batch queue is untouched.
// Not safe for concurrent use — the owning session serializes flushes.

const (
	// coalesceMinBytes and coalesceMaxBytes bound the byte threshold.
	coalesceMinBytes = 4 << 10
	coalesceMaxBytes = 4 << 20
	// coalesceGrowGate is the required per-entry improvement to keep
	// growing: after a growth step, per-entry cost must fall below it
	// times its pre-growth value or the threshold holds.
	coalesceGrowGate = 0.95
	// coalesceInflate is the flush-latency inflation gate for
	// multiplicative decrease, against a slow EWMA.
	coalesceInflate = 2.5
)

// CoalesceConfig tunes a Coalescer. The zero value selects the
// documented defaults.
type CoalesceConfig struct {
	// MinN and MaxN bound the entry threshold (defaults 4 and 512).
	MinN, MaxN int
	// Initial is the starting entry threshold (default MinN).
	Initial int
	// FlushesPerAdjust is how many flushes are observed between
	// control decisions (default 8).
	FlushesPerAdjust int
}

func (c CoalesceConfig) withDefaults() CoalesceConfig {
	if c.MinN <= 0 {
		c.MinN = 4
	}
	if c.MaxN <= 0 {
		c.MaxN = 512
	}
	if c.MaxN < c.MinN {
		c.MaxN = c.MinN
	}
	if c.Initial <= 0 {
		c.Initial = c.MinN
	}
	if c.Initial < c.MinN {
		c.Initial = c.MinN
	}
	if c.Initial > c.MaxN {
		c.Initial = c.MaxN
	}
	if c.FlushesPerAdjust <= 0 {
		c.FlushesPerAdjust = 8
	}
	return c
}

// CoalesceStats is a point-in-time view of a Coalescer.
type CoalesceStats struct {
	MaxN     int // current entry threshold
	MaxBytes int // current byte threshold
	Grows    uint64
	Shrinks  uint64
	Reverts  uint64 // growth steps undone for lack of improvement
	Flushes  uint64
}

// A Coalescer owns the batch thresholds for one session.
type Coalescer struct {
	cfg CoalesceConfig

	n        int // current entry threshold
	maxBytes int

	perEntry     EWMA // smoothed flush-cost-per-entry at the current size
	prevPerEntry float64
	bytesPer     EWMA // smoothed payload bytes per entry
	flushShort   EWMA
	flushLong    EWMA
	full         int // flushes that hit the entry threshold
	sinceAdjust  int
	lastGrew     bool
	holdoff      int // adjustments to sit out after a revert

	grows, shrinks, reverts, flushes uint64
}

// NewCoalescer builds a Coalescer.
func NewCoalescer(cfg CoalesceConfig) *Coalescer {
	c := cfg.withDefaults()
	return &Coalescer{
		cfg:        c,
		n:          c.Initial,
		maxBytes:   coalesceMaxBytes,
		perEntry:   NewEWMA(alpha),
		bytesPer:   NewEWMA(alpha),
		flushShort: NewEWMA(alpha),
		flushLong:  NewEWMA(0.02),
	}
}

// OnFlush records one flushed batch — entry count, payload bytes, and
// wall latency of the BATCH_EXEC round trip — and returns the entry
// and byte thresholds to apply to the next batch.
func (c *Coalescer) OnFlush(entries, bytes int, d time.Duration) (maxN, maxBytes int) {
	if entries <= 0 {
		return c.n, c.maxBytes
	}
	c.flushes++
	per := float64(d) / float64(entries)
	c.perEntry.Observe(per)
	c.bytesPer.Observe(float64(bytes) / float64(entries))
	c.flushShort.Observe(float64(d))
	c.flushLong.Observe(float64(d))
	if entries >= c.n {
		c.full++
	}
	c.sinceAdjust++
	if c.sinceAdjust >= c.cfg.FlushesPerAdjust {
		c.adjust()
	}
	return c.n, c.maxBytes
}

// adjust runs one control decision over the flushes seen since the
// last one.
func (c *Coalescer) adjust() {
	full2 := c.full*2 >= c.sinceAdjust
	c.sinceAdjust, c.full = 0, 0

	switch {
	case c.flushLong.Value() > 0 && c.flushShort.Value() > coalesceInflate*c.flushLong.Value():
		// Flush latency detached from its long-run average without a
		// size change explaining it: the server degraded. Shed batch
		// richness multiplicatively, and remember the pre-shrink
		// per-entry cost so growth must earn its way back — otherwise
		// the bootstrap gate would re-grow into the degradation on the
		// very next decision.
		c.prevPerEntry = c.perEntry.Value()
		c.setN(c.n / 2)
		c.shrinks++
		c.lastGrew = false
	case c.lastGrew && c.prevPerEntry > 0 && c.perEntry.Value() > c.prevPerEntry:
		// The last growth step made per-entry cost worse: past the
		// knee. Undo it, and sit out a few decisions so the probe
		// does not oscillate into the bad size at full duty cycle.
		c.setN(c.n / 2)
		c.reverts++
		c.lastGrew = false
		c.prevPerEntry = 0
		c.holdoff = 8
	case c.holdoff > 0:
		c.holdoff--
		c.lastGrew = false
	case full2 && c.n < c.cfg.MaxN &&
		(c.prevPerEntry == 0 || c.perEntry.Value() < coalesceGrowGate*c.prevPerEntry):
		// The threshold binds (batches fill) and the previous step
		// still bought a real per-entry improvement (or no step has
		// been tried yet): amortization has more to give.
		c.prevPerEntry = c.perEntry.Value()
		c.setN(c.n * 2)
		c.grows++
		c.lastGrew = true
	default:
		c.lastGrew = false
	}

	// Derive the byte threshold from the entry threshold and the
	// observed payload density, with slack so the entry threshold —
	// not bytes — is the binding knob for typical entries.
	if bp := c.bytesPer.Value(); bp > 0 {
		b := int(bp * float64(c.n) * 2)
		if b < coalesceMinBytes {
			b = coalesceMinBytes
		}
		if b > coalesceMaxBytes {
			b = coalesceMaxBytes
		}
		c.maxBytes = b
	}
}

func (c *Coalescer) setN(n int) {
	if n < c.cfg.MinN {
		n = c.cfg.MinN
	}
	if n > c.cfg.MaxN {
		n = c.cfg.MaxN
	}
	if n != c.n {
		// A size change explains whatever the flush latency does next;
		// re-seed the inflation detector so it only fires on same-size
		// latency jumps (a degrading server, not our own growth).
		c.flushShort = NewEWMA(alpha)
		c.flushLong = NewEWMA(0.02)
	}
	c.n = n
}

// Thresholds returns the current entry and byte thresholds.
func (c *Coalescer) Thresholds() (maxN, maxBytes int) { return c.n, c.maxBytes }

// Stats returns the controller's counters.
func (c *Coalescer) Stats() CoalesceStats {
	return CoalesceStats{
		MaxN:     c.n,
		MaxBytes: c.maxBytes,
		Grows:    c.grows,
		Shrinks:  c.shrinks,
		Reverts:  c.reverts,
		Flushes:  c.flushes,
	}
}
