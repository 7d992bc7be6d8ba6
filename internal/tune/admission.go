package tune

import "time"

// An Admission controller walks a server's MaxInflight ceiling and
// its AUTH_RETRY backpressure hint from windowed latency deltas. The
// server feeds it one AdmissionObs per control interval — quantiles
// computed over the *delta* of its dispatch histograms, so each
// decision sees only that interval's traffic, not the lifetime
// average — and applies whatever ceiling and hint come back.
//
// The model mirrors Window's AIMD hybrid on the server side: the p50
// of recent intervals is tracked as the service-time baseline; while
// the interval p99 stays within Inflate of that baseline the ceiling
// creeps up additively (admit more before shedding), and when the
// tail detaches the ceiling halves — the queue behind MaxInflight is
// the only thing that can detach it, so shrinking the ceiling
// converts queueing into early sheds that carry a retry hint. The
// hint itself tracks the baseline: "come back after roughly two
// service times" adapts from microseconds on an idle simulated GPU to
// whatever a loaded one actually exhibits, replacing the fixed 50ms
// guess. Not safe for concurrent use — the server's tuner goroutine
// owns it.

// AdmissionConfig tunes an Admission controller. The zero value
// selects the documented defaults.
type AdmissionConfig struct {
	// Min and Max bound the MaxInflight ceiling (defaults 2 and 256).
	Min, Max int
	// Initial is the starting ceiling (default 16).
	Initial int
	// Inflate is the tail-detachment gate: interval p99 above Inflate
	// times the baseline triggers multiplicative decrease (default 4).
	Inflate float64
	// Step is the additive increase (default 2).
	Step int
	// MinCount is the minimum interval sample count for a decision;
	// quieter intervals hold the ceiling (default 8).
	MinCount uint64
	// HintMin and HintMax clamp the retry hint (defaults 1ms, 250ms).
	HintMin, HintMax time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Min <= 0 {
		c.Min = 2
	}
	if c.Max <= 0 {
		c.Max = 256
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.Initial <= 0 {
		c.Initial = 16
	}
	if c.Initial < c.Min {
		c.Initial = c.Min
	}
	if c.Initial > c.Max {
		c.Initial = c.Max
	}
	if c.Inflate <= 1 {
		c.Inflate = 4
	}
	if c.Step <= 0 {
		c.Step = 2
	}
	if c.MinCount == 0 {
		c.MinCount = 8
	}
	if c.HintMin <= 0 {
		c.HintMin = time.Millisecond
	}
	if c.HintMax <= 0 {
		c.HintMax = 250 * time.Millisecond
	}
	if c.HintMax < c.HintMin {
		c.HintMax = c.HintMin
	}
	return c
}

// AdmissionObs is one control interval's windowed measurement: the
// quantiles of the server-side dispatch histogram delta plus the shed
// count over the same interval.
type AdmissionObs struct {
	Count uint64 // calls dispatched this interval
	P50   time.Duration
	P99   time.Duration
	Sheds uint64 // calls shed this interval
}

// AdmissionStats is a point-in-time view of an Admission controller.
type AdmissionStats struct {
	MaxInflight int
	RetryAfter  time.Duration
	Grows       uint64
	Shrinks     uint64
	Intervals   uint64
}

// An Admission controller owns one server's admission knobs.
type Admission struct {
	cfg      AdmissionConfig
	limit    int
	hint     time.Duration
	baseline EWMA // p50 service-time EWMA across intervals

	grows, shrinks, intervals uint64
}

// NewAdmission builds an Admission controller.
func NewAdmission(cfg AdmissionConfig) *Admission {
	c := cfg.withDefaults()
	return &Admission{
		cfg:      c,
		limit:    c.Initial,
		hint:     c.HintMin,
		baseline: NewEWMA(alpha),
	}
}

// Update folds one interval in and returns the ceiling and retry hint
// to apply until the next interval.
func (a *Admission) Update(o AdmissionObs) (maxInflight int, retryAfter time.Duration) {
	a.intervals++
	if o.Count < a.cfg.MinCount {
		// Too quiet to read: hold the operating point. An idle server
		// keeps whatever ceiling the last busy interval earned.
		return a.limit, a.hint
	}
	detached := a.baseline.Samples() > 0 &&
		float64(o.P99) > a.cfg.Inflate*a.baseline.Value()
	if detached {
		// Under a deep queue the p50 inflates too; folding it straight
		// in would teach the controller that queueing is normal. But a
		// persistent shift may be the workload genuinely getting
		// heavier, so fold it in at one-eighth weight: queueing bursts
		// barely move the baseline, a real shift re-bases it within a
		// few dozen intervals.
		a.baseline.ObserveWith(float64(o.P50), alpha/8)
	} else {
		a.baseline.Observe(float64(o.P50))
	}
	base := a.baseline.Value()

	switch {
	case detached:
		// The tail detached from the service baseline: calls are
		// queueing behind the ceiling. Halve it — early sheds with a
		// hint beat silent queueing.
		next := int(float64(a.limit) * beta)
		if next >= a.limit {
			next = a.limit - 1
		}
		if next < a.cfg.Min {
			next = a.cfg.Min
		}
		if next != a.limit {
			a.limit = next
			a.shrinks++
		}
	case a.limit < a.cfg.Max:
		// Healthy interval: probe upward additively. Sheds during a
		// healthy interval mean demand exists that we turned away.
		a.limit += a.cfg.Step
		if a.limit > a.cfg.Max {
			a.limit = a.cfg.Max
		}
		a.grows++
	}

	// The hint is the advertised operating point: stay away for about
	// two service times, whatever a service time currently is.
	h := time.Duration(2 * base)
	if h < a.cfg.HintMin {
		h = a.cfg.HintMin
	}
	if h > a.cfg.HintMax {
		h = a.cfg.HintMax
	}
	a.hint = h
	return a.limit, a.hint
}

// Operating returns the current ceiling and hint without folding in
// an observation.
func (a *Admission) Operating() (maxInflight int, retryAfter time.Duration) {
	return a.limit, a.hint
}

// Stats returns the controller's counters.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		MaxInflight: a.limit,
		RetryAfter:  a.hint,
		Grows:       a.grows,
		Shrinks:     a.shrinks,
		Intervals:   a.intervals,
	}
}
