package main

import (
	"bytes"
	"errors"
	"math"
	"regexp"
	"testing"
	"time"

	"cricket/internal/core"
	"cricket/internal/cricket"
	"cricket/internal/guest"
)

// smoke is every workload at a few hundredths of its op count, so the
// tier-1 test run stays fast.
var smoke = config{seed: 7, seconds: 0.1, repeats: 2, scale: 100, minBatches: 1}

func checkMetrics(t *testing.T, what string, want []specMetric, got map[string]metric) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is in BENCHMARK.json and was not emitted", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: %s = %v", what, m.Name, g.Value)
		}
	}
	if len(got) != len(want) {
		names := make(map[string]bool)
		for _, m := range want {
			names[m.Name] = true
		}
		for name := range got {
			if !names[name] {
				t.Errorf("%s: %s was emitted and is not in BENCHMARK.json", what, name)
			}
		}
	}
}

// The smoke run holds BENCHMARK.json and the program to each other:
// every workload and metric named there is produced, with its unit and
// a finite value, and nothing else is.
func TestSmokeMatchesSpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the contract's 8 / 16 / 128", n, len(spec.EndToEnd), len(spec.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	hasSetup := false
	for i, ms := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
		for _, m := range ms {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("metric %q (unit %q) is misnamed or repeated", m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if i == 0 && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
			}
			hasSetup = hasSetup || (i == 0 && m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}

	digests := make(map[string]uint64)
	for i, w := range workloads {
		if sw := spec.Workloads[i]; sw.Name != w.name || sw.Why != w.why || len(w.why) > 200 || !name.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (why must match and fit 200 characters)", i, sw.Name, w.name)
		}
		s, err := measure(w, smoke)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", w.name, s.Correct, s.Attempted, s.Failed)
		}
		checkMetrics(t, w.name, spec.EndToEnd, s.Metrics)
		digests[w.name] = s.digest
	}
	if digests["launch_sync"] != digests["launch_batched"] {
		t.Errorf("launch_sync read back %016x, launch_batched %016x", digests["launch_sync"], digests["launch_batched"])
	}

	w, _ := workloadByName("launch_batched")
	rep, tr, err := measureLayers(w, smoke)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Attempted < 1 {
		t.Errorf("traced run: correct %v, attempted %d, failed %d", rep.Correct, rep.Attempted, rep.Failed)
	}
	layers := rep.Metrics
	checkMetrics(t, "traced run", spec.PerLayer, layers)
	for _, zero := range []string{"batch.enqueue_allocs", "session.reconnects", "session.replays", "server.calls_shed", "serve.shed"} {
		if v := layers[zero].Value; v != 0 {
			t.Errorf("%s = %v, want 0", zero, v)
		}
	}
	// The open loop times requests from when they were due, so no time
	// to first token can be shorter than the engine takes, and the
	// generator's lateness is reported beside it.
	if layers["loadgen.samples"].Value < 1 || layers["serve.ttft_p50_us"].Value <= 0 || layers["loadgen.late_p99_us"].Value < 0 {
		t.Errorf("open loop: %v requests, ttft p50 %v us, generator late by %v us",
			layers["loadgen.samples"].Value, layers["serve.ttft_p50_us"].Value, layers["loadgen.late_p99_us"].Value)
	}
	if got := layers["batch.entries_per_flush"].Value; got < 2 {
		t.Errorf("launch_batched flushed %v entries at a time", got)
	}
	if self := tr.selfTimes(); self["window"] <= 0 || self["session.LaunchKernel"] <= 0 {
		t.Errorf("traced run recorded no window or launch spans: %v", self)
	}
}

// A wrong read-back and an errored op both count as failed and both
// stay in the number attempted.
func TestFailedOpsStayInDenominator(t *testing.T) {
	cl := core.NewCluster()
	defer cl.Close()
	e := &env{seed: 1, slice: 20 * time.Millisecond, scale: 100}
	s, err := cricket.NewSession(sessionOptions(cl, e, cricket.Options{Platform: guest.RustyHermit()}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ptr, err := s.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected")
	want := bytes.Repeat([]byte{0xA5}, 64)
	var got []byte
	timed := -2 // warm-up runs two ops first
	c := closed{
		cl: cl, s: s, span: "op", units: 1, warm: 1, simOps: 1,
		prep: func(int) error { timed++; return nil },
		op: func(int) error {
			if timed == 3 {
				return boom
			}
			if err := s.MemcpyHtoD(ptr, want); err != nil {
				return err
			}
			got, err = s.MemcpyDtoH(ptr, 64)
			return err
		},
		check: func(int) error {
			if timed == 5 {
				got[17] ^= 1 // the flipped byte a broken copy path would return
			}
			if !bytes.Equal(got, want) {
				return errWrongOutput
			}
			return nil
		},
		digest: func() (uint64, error) { return 0, nil },
	}
	r, err := c.run(e, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 2 || r.attempted <= 5 || r.samples != r.attempted {
		t.Errorf("failed %d of %d attempted with %d latency samples; want 2 failed, all attempted ops sampled", r.failed, r.attempted, r.samples)
	}
}

func TestTailPercent(t *testing.T) {
	for _, c := range []struct{ n, top, want int }{
		{5000, 99, 99}, {1000, 99, 99}, {999, 99, 95}, {200, 99, 95}, {199, 99, 90}, {100, 99, 90}, {99, 99, 50}, {0, 99, 50},
		{5000, 95, 95}, {200, 95, 95}, {199, 95, 90}, {99, 95, 50},
	} {
		if got := tailPercent(c.n, c.top); got != c.want {
			t.Errorf("tailPercent(%d, %d) = p%d, want p%d", c.n, c.top, got, c.want)
		}
	}
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if v, p := tail(s, 99); v != 990 || p != 99 {
		t.Errorf("tail of 1..1000 = %v at p%d, want 990 at p99 (ten samples beyond it)", v, p)
	}
	if v, p := tail(s[:300], 99); v != 285 || p != 95 {
		t.Errorf("tail of 1..300 = %v at p%d, want 285 at p95", v, p)
	}
	if v, p := tail(s, 95); v != 950 || p != 95 {
		t.Errorf("tail of 1..1000 capped at p95 = %v at p%d, want 950", v, p)
	}
	if got := quantile(s, 0.50); got != 500 {
		t.Errorf("median rank of 1..1000 = %v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4),
// which the builder contract defines a metric's spread with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles of 3 1 4 1 5 = %v, %v; Python gives 1, 4.5", q1, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.setReq(4)
	tr.begin("op")
	tr.begin("call")
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.end()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[1].Req != 4 || tr.spans[0].Parent != -1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	self := tr.selfTimes()
	if self["call"] < 2*time.Millisecond || self["op"] >= self["call"] {
		t.Errorf("self times %v: the sleep belongs to call, not op", self)
	}
	var none *tracer // untraced runs pass a nil tracer
	none.setReq(1)
	none.begin("x")
	none.end()
}
