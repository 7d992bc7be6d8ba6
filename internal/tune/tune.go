// Package tune closes the loop between measured latency and the
// datapath's operating knobs. Every key knob in the Cricket datapath
// — the client's concurrency, the BATCH_EXEC coalescing thresholds,
// the server's admission ceiling — trades latency for throughput
// along the same curve: pushing harder raises throughput linearly
// until the service saturates, after which added load only deepens a
// queue and inflates latency. The knee of that curve is the operating
// point; it moves with the workload, so a static flag is wrong most
// of the day. The controllers here find the knee by feedback:
//
//   - Window (this file) is a client-side adaptive in-flight window.
//     It tracks an EWMA of call latency per requests-in-flight (RIF)
//     level and walks the window with a gradient/AIMD hybrid: grow
//     additively while the marginal latency of one more RIF is flat,
//     back off multiplicatively when the recent high quantile
//     inflates over the long-run EWMA (queue forming) or the server
//     sheds (overload is the hardest possible evidence).
//   - Coalescer (coalesce.go) tunes the BATCH_EXEC thresholds from
//     observed flush latency versus per-entry amortization.
//   - Admission (admission.go) walks the server's MaxInflight ceiling
//     and AUTH_RETRY hint from windowed histogram deltas.
//
// All three are deterministic given their observation stream (no
// internal randomness), allocation-free after construction, and
// independent of the cricket packages so any layer can use them.
package tune

import (
	"sync"
	"time"
)

// An EWMA is an exponentially weighted moving average. The zero value
// is empty; the first observation seeds it. Not safe for concurrent
// use — callers hold their own locks.
type EWMA struct {
	v     float64
	alpha float64
	n     uint64
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1];
// larger alpha weights recent observations more.
func NewEWMA(alpha float64) EWMA { return EWMA{alpha: alpha} }

// Observe folds one sample in.
func (e *EWMA) Observe(x float64) { e.ObserveWith(x, e.alpha) }

// ObserveWith folds one sample in under an override smoothing factor,
// for callers that weight some samples less (e.g. re-basing a
// baseline from observations it half-distrusts).
func (e *EWMA) ObserveWith(x, alpha float64) {
	if e.n == 0 {
		e.v = x
	} else {
		e.v += alpha * (x - e.v)
	}
	e.n++
}

// Value returns the current average (0 when empty).
func (e *EWMA) Value() float64 { return e.v }

// Samples returns how many observations have been folded in.
func (e *EWMA) Samples() uint64 { return e.n }

// ringSize is the recent-sample window the Window controller scans
// for its high quantile. 64 samples put the second-highest at roughly
// the 97th percentile — a cheap, allocation-free p99 stand-in.
const ringSize = 64

// Constants of the controllers.
const (
	// alpha smooths every controller's latency EWMAs.
	alpha = 0.3
	// beta is the multiplicative decrease factor of the AIMD
	// controllers (Window, Admission).
	beta = 0.5
	// windowFlat is the Window's marginal-latency gate: it grows only
	// while ewma(latency at the current window) <= windowFlat *
	// ewma(latency at half the window) — one more RIF is still roughly
	// free.
	windowFlat = 1.4
	// windowSteep is its descent gate: when the same ratio exceeds it
	// the window is clearly past the knee (running here costs real
	// latency over running at half the window) and the controller
	// probes downward one Step per period.
	windowSteep = 1.8
)

// WindowConfig tunes a Window controller. The zero value selects the
// documented defaults.
type WindowConfig struct {
	// Min and Max bound the window (defaults 1 and 64). Min == Max
	// pins the window: the controller still measures but never moves,
	// which is how a "static" configuration rides the same code path.
	Min, Max int
	// Initial is the starting window (default Min).
	Initial int
	// Inflate is the backoff gate: when the recent high quantile
	// exceeds Inflate * the long-run EWMA, a queue is forming and the
	// window shrinks multiplicatively (default 2.5).
	Inflate float64
	// Step is the additive increase (default 1).
	Step int
	// Period is the minimum spacing between adjustments (default
	// 10ms), so one burst cannot slam the window repeatedly.
	Period time.Duration
	// MinSamples is the minimum number of observations between
	// adjustments (default 16).
	MinSamples int
	// Clock overrides the adjustment timebase (tests).
	Clock func() time.Time
}

func (c WindowConfig) withDefaults() WindowConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 64
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.Initial <= 0 {
		c.Initial = c.Min
	}
	if c.Initial < c.Min {
		c.Initial = c.Min
	}
	if c.Initial > c.Max {
		c.Initial = c.Max
	}
	if c.Inflate <= 1 {
		c.Inflate = 2.5
	}
	if c.Step <= 0 {
		c.Step = 1
	}
	if c.Period <= 0 {
		c.Period = 10 * time.Millisecond
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 16
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// WindowStats is a point-in-time view of a Window controller.
type WindowStats struct {
	Window   int // current window size
	Inflight int // slots currently held
	Grows    uint64
	Shrinks  uint64
	Backoffs uint64 // shrinks forced by explicit Backpressure
	Samples  uint64 // total observations
}

// A Window is an adaptive concurrency limiter: a semaphore whose
// capacity walks the knee of the latency/RIF curve. Any number of
// goroutines (typically many sessions sharing one guest) Acquire a
// slot before issuing a call, Observe the call's latency, and Release
// the slot. Safe for concurrent use.
type Window struct {
	cfg WindowConfig

	mu       sync.Mutex
	cond     *sync.Cond
	window   int
	inflight int

	levels  []EWMA // per-RIF latency, index rif-1
	long    EWMA   // long-horizon latency across all levels
	ring    [ringSize]float64
	ringLen int
	ringPos int

	samples    int // observations since the last adjustment
	atCeil     int // of those, how many ran at rif >= window
	lastAdjust time.Time

	grows, shrinks, backoffs, total uint64
}

// NewWindow builds a Window controller.
func NewWindow(cfg WindowConfig) *Window {
	c := cfg.withDefaults()
	w := &Window{
		cfg:    c,
		window: c.Initial,
		levels: make([]EWMA, c.Max),
		long:   NewEWMA(0.05),
	}
	for i := range w.levels {
		w.levels[i] = NewEWMA(alpha)
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Static returns a pinned window of size n: the same gate with the
// controller disabled, for hand-tuned configurations and ablations.
func Static(n int) *Window {
	if n <= 0 {
		n = 1
	}
	return NewWindow(WindowConfig{Min: n, Max: n})
}

// Acquire blocks until a slot is free and returns the RIF level the
// caller runs at (its slot number, 1-based). Pass it to Observe.
func (w *Window) Acquire() int {
	w.mu.Lock()
	for w.inflight >= w.window {
		w.cond.Wait()
	}
	w.inflight++
	rif := w.inflight
	w.mu.Unlock()
	return rif
}

// Release frees a slot taken by Acquire.
func (w *Window) Release() {
	w.mu.Lock()
	if w.inflight > 0 {
		w.inflight--
	}
	w.mu.Unlock()
	w.cond.Signal()
}

// Observe records the latency of one call that ran at the given RIF
// level and, when due, adjusts the window.
func (w *Window) Observe(rif int, d time.Duration) {
	if rif < 1 {
		rif = 1
	}
	x := float64(d)
	w.mu.Lock()
	if rif > len(w.levels) {
		rif = len(w.levels)
	}
	w.levels[rif-1].Observe(x)
	w.long.Observe(x)
	w.ring[w.ringPos] = x
	w.ringPos = (w.ringPos + 1) % ringSize
	if w.ringLen < ringSize {
		w.ringLen++
	}
	w.samples++
	w.total++
	if rif >= w.window {
		w.atCeil++
	}
	w.maybeAdjustLocked()
	w.mu.Unlock()
}

// Backpressure records an overload shed: the strongest possible
// signal that the window overshot. It forces an immediate
// multiplicative decrease (rate-limited by Period).
func (w *Window) Backpressure() {
	w.mu.Lock()
	now := w.cfg.Clock()
	if now.Sub(w.lastAdjust) >= w.cfg.Period {
		w.shrinkLocked()
		w.backoffs++
		w.lastAdjust = now
		w.samples, w.atCeil = 0, 0
	}
	w.mu.Unlock()
}

// recentHigh returns the second-highest sample in the ring — a cheap
// high quantile that a single outlier cannot own. Called with mu held.
func (w *Window) recentHigh() float64 {
	var hi1, hi2 float64
	for i := 0; i < w.ringLen; i++ {
		x := w.ring[i]
		if x > hi1 {
			hi1, hi2 = x, hi1
		} else if x > hi2 {
			hi2 = x
		}
	}
	if w.ringLen < 2 {
		return hi1
	}
	return hi2
}

// maybeAdjustLocked runs one control decision when enough samples and
// time have accumulated. Called with mu held.
func (w *Window) maybeAdjustLocked() {
	if w.cfg.Min == w.cfg.Max {
		return // pinned (static) window
	}
	if w.samples < w.cfg.MinSamples {
		return
	}
	now := w.cfg.Clock()
	if now.Sub(w.lastAdjust) < w.cfg.Period {
		return
	}
	defer func() {
		w.lastAdjust = now
		w.samples, w.atCeil = 0, 0
	}()

	long := w.long.Value()
	if high := w.recentHigh(); long > 0 && high > w.cfg.Inflate*long {
		// The tail detached from the long-run average: a queue is
		// forming somewhere downstream. Back off multiplicatively.
		w.shrinkLocked()
		return
	}
	if w.atCeil*2 < w.samples {
		// The window is not binding — offered load sits below it, so
		// growing would tune a knob nothing is pushing against.
		return
	}
	// Gradient gates: compare latency at the current window against
	// half the window. Flat marginal latency means one more RIF is
	// still free — grow. A steep ratio means the window is parked past
	// the knee — probe downward. In between is the knee itself: hold.
	cur := &w.levels[w.window-1]
	ref := w.refLevelLocked()
	if cur.Samples() > 0 && ref != nil && ref.Value() > 0 {
		r := cur.Value() / ref.Value()
		if r > windowSteep && w.window > w.cfg.Min {
			w.window -= w.cfg.Step
			if w.window < w.cfg.Min {
				w.window = w.cfg.Min
			}
			w.shrinks++
			return
		}
		if r > windowFlat {
			return
		}
	}
	if w.window < w.cfg.Max {
		w.window += w.cfg.Step
		if w.window > w.cfg.Max {
			w.window = w.cfg.Max
		}
		w.grows++
		w.cond.Broadcast()
	}
}

// refLevelLocked picks the comparison level for the gradient gates:
// the highest populated level at or below half the window, falling
// back to the nearest populated level below the window when the
// half-window level was never visited (the window jumped here, or
// shrank over untraveled ground). Nil means no reference exists and
// growth proceeds on bootstrap optimism. Called with mu held.
func (w *Window) refLevelLocked() *EWMA {
	half := maxInt(w.cfg.Min, w.window/2)
	for i := half; i >= 1; i-- {
		if w.levels[i-1].Samples() > 0 {
			return &w.levels[i-1]
		}
	}
	for i := half + 1; i < w.window; i++ {
		if w.levels[i-1].Samples() > 0 {
			return &w.levels[i-1]
		}
	}
	return nil
}

// shrinkLocked applies one multiplicative decrease. Called with mu
// held.
func (w *Window) shrinkLocked() {
	next := int(float64(w.window) * beta)
	if next >= w.window {
		next = w.window - 1
	}
	if next < w.cfg.Min {
		next = w.cfg.Min
	}
	if next != w.window {
		w.window = next
		w.shrinks++
	}
}

// Window returns the current window size.
func (w *Window) Window() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.window
}

// Stats returns the controller's counters.
func (w *Window) Stats() WindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WindowStats{
		Window:   w.window,
		Inflight: w.inflight,
		Grows:    w.grows,
		Shrinks:  w.shrinks,
		Backoffs: w.backoffs,
		Samples:  w.total,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
