package obs

import (
	"math/rand"
	"testing"
	"time"
)

// windowTicker returns h's per-window deltas: each call is the snapshot
// now minus the snapshot at the previous call, which is how interval
// consumers (the diurnal macro-bench phases) cut windows.
func windowTicker(h *Histogram) (tick func() HistSnapshot) {
	var prev HistSnapshot
	return func() HistSnapshot {
		cur := h.Snapshot()
		d := cur.Sub(prev)
		prev = cur
		return d
	}
}

func TestWindowedTickDeltas(t *testing.T) {
	h := &Histogram{}
	tick := windowTicker(h)

	// Empty window: Sub of identical snapshots must be the zero
	// snapshot, and an SLO trivially holds over it.
	d := tick()
	if d.Count != 0 || d.Sum != 0 || d.Min != 0 || d.Max != 0 {
		t.Fatalf("empty window not zero: %+v", d)
	}
	slo := SLO{Quantile: 0.99, Budget: time.Millisecond}
	if !slo.Met(d) {
		t.Fatal("empty window violates an SLO")
	}

	h.Observe(100 * time.Microsecond)
	h.Observe(200 * time.Microsecond)
	d = tick()
	if d.Count != 2 {
		t.Fatalf("window count = %d, want 2", d.Count)
	}
	// Next window sees only new observations.
	h.Observe(time.Second)
	d = tick()
	if d.Count != 1 {
		t.Fatalf("second window count = %d, want 1", d.Count)
	}
	if q := d.Quantile(0.5); q != time.Second {
		t.Fatalf("second window p50 = %v, want 1s (old observations leaked in)", q)
	}
	if n := h.Snapshot().Count; n != 3 {
		t.Fatalf("lifetime count = %d, want 3", n)
	}
}

// TestWindowSingleBucket pins the single-bucket window: every
// quantile must land inside the bucket's range, clamped to the
// window's approximated [Min, Max].
func TestWindowSingleBucket(t *testing.T) {
	h := &Histogram{}
	tick := windowTicker(h)
	tick()
	for i := 0; i < 10; i++ {
		h.Observe(betweenPow2(10)) // all in bucket [1024ns, 2048ns)
	}
	d := tick()
	if d.Count != 10 {
		t.Fatalf("count = %d", d.Count)
	}
	lo, hi := time.Duration(1<<10), time.Duration(1<<11)
	if d.Min < lo || d.Max > hi {
		t.Fatalf("window range [%v, %v] outside bucket [%v, %v)", d.Min, d.Max, lo, hi)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		v := d.Quantile(q)
		if v < d.Min || v > d.Max {
			t.Fatalf("q%.2f = %v outside window [%v, %v]", q, v, d.Min, d.Max)
		}
	}
}

func betweenPow2(exp uint) time.Duration {
	return time.Duration(int64(1)<<exp + rand.Int63n(int64(1)<<exp))
}

// TestWindowMergeAfterSubIdentity checks the macro-bench invariant:
// splitting a histogram's history into consecutive windows with Sub
// and folding the windows back together with Merge reproduces the
// lifetime counts, sums, and buckets exactly.
func TestWindowMergeAfterSubIdentity(t *testing.T) {
	h := &Histogram{}
	tick := windowTicker(h)
	rng := rand.New(rand.NewSource(42))

	// A bursty diurnal shape: quiet windows (often empty), a ramp,
	// a heavy peak with a wide latency spread, then quiet again.
	phases := []struct {
		windows int
		perTick int
		spread  int64
	}{
		{windows: 4, perTick: 0, spread: 0},                // trough: empty windows
		{windows: 3, perTick: 5, spread: int64(1 << 12)},   // ramp
		{windows: 5, perTick: 200, spread: int64(1 << 22)}, // peak, bursty
		{windows: 4, perTick: 1, spread: int64(1 << 8)},    // cooldown: single-bucket-ish
	}
	var windows []HistSnapshot
	for _, ph := range phases {
		for wi := 0; wi < ph.windows; wi++ {
			for i := 0; i < ph.perTick; i++ {
				h.Observe(time.Duration(1 + rng.Int63n(1+ph.spread)))
			}
			windows = append(windows, tick())
		}
	}

	var merged HistSnapshot
	for _, d := range windows {
		merged.Merge(d)
	}
	life := h.Snapshot()
	if merged.Count != life.Count || merged.Sum != life.Sum {
		t.Fatalf("merged count/sum %d/%v, lifetime %d/%v", merged.Count, merged.Sum, life.Count, life.Sum)
	}
	if merged.Buckets != life.Buckets {
		t.Fatalf("merged buckets diverge from lifetime")
	}
	// Min/Max cannot regress outside the lifetime extremes.
	if merged.Min < life.Min || merged.Max > life.Max {
		t.Fatalf("merged range [%v, %v] outside lifetime [%v, %v]", merged.Min, merged.Max, life.Min, life.Max)
	}
	// Quantiles over the merged view must match the lifetime view
	// bucket-for-bucket (same buckets, same count ⇒ same estimate up
	// to the Min/Max clamp).
	for _, q := range []float64{0.5, 0.9, 0.99} {
		mv, lv := merged.Quantile(q), life.Quantile(q)
		if mv < lv/2 || mv > lv*2 {
			t.Fatalf("q%.2f: merged %v vs lifetime %v", q, mv, lv)
		}
	}
}

// TestWindowCountRegression: a Sub against a snapshot that is not an
// earlier view of the same histogram must yield the zero snapshot,
// never negative counts.
func TestWindowCountRegression(t *testing.T) {
	h1, h2 := &Histogram{}, &Histogram{}
	for i := 0; i < 5; i++ {
		h1.Observe(time.Microsecond)
	}
	h2.Observe(time.Second)
	d := h2.Snapshot().Sub(h1.Snapshot())
	if d != (HistSnapshot{}) {
		t.Fatalf("count-regression Sub yielded %+v, want zero snapshot", d)
	}
	// Per-bucket regression with a larger total count must also zero.
	for i := 0; i < 10; i++ {
		h2.Observe(time.Second)
	}
	d = h2.Snapshot().Sub(h1.Snapshot())
	if d != (HistSnapshot{}) {
		t.Fatalf("bucket-regression Sub yielded %+v, want zero snapshot", d)
	}
}

func TestSLOMetBoundary(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	at := SLO{Quantile: 0.99, Budget: s.Quantile(0.99)}
	if !at.Met(s) {
		t.Fatal("budget equal to the quantile reported violated")
	}
	under := SLO{Quantile: 0.99, Budget: s.Quantile(0.99) - 1}
	if under.Met(s) {
		t.Fatal("budget below the quantile reported met")
	}
}
