// Command benchmark is the repository's benchmark: wall-clock workloads
// driven through cricket.Session against an in-process GPU node, their
// end-to-end metrics, and a traced run that splits the time by layer.
// BENCHMARK.json at the module root names the command, the workloads
// and every metric; README.md in this directory explains them.
//
//	go run ./benchmark -workload launch_sync -seed 1 -seconds 14 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// repeats is how many times a run sets a workload up, warms it and
// measures it; every end-to-end metric is the median over them.
const repeats = 5

// A config is what one run of one workload is given.
type config struct {
	seed       int64
	seconds    float64 // measured time of the whole run, split over the repeats
	repeats    int
	scale      int // warm-up divisor; 1 except in the smoke test
	minBatches int // batches a timing probe runs at least; 3 except in the smoke test
}

// A report is the last line a run prints, in the builder contract's
// shape.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A summary is a report plus what the self-check compares exactly.
type summary struct {
	report
	digest   uint64
	simPerOp float64 // simulated µs per op; a count made by cost models
}

// endToEnd lists the untraced metrics in print order, with how one
// repeat yields each.
var endToEnd = []struct {
	name, unit string
	of         func(r *repeat) float64
}{
	{"setup_s", "s", func(r *repeat) float64 { return r.setup.Seconds() }},
	{"ops_per_s", "1/s", func(r *repeat) float64 { return r.units / r.elapsed.Seconds() }},
	{"op_p50_us", "us", func(r *repeat) float64 { return r.p50 }},
	{"op_p95_us", "us", func(r *repeat) float64 { return r.tail }},
	{"allocs_per_op", "count", func(r *repeat) float64 { return float64(r.use.mallocs) / r.work }},
	{"alloc_bytes_per_op", "B", func(r *repeat) float64 { return float64(r.use.bytes) / r.work }},
	{"live_heap_mib", "MiB", func(r *repeat) float64 { return r.heapMiB }},
}

// measure is one untraced run: the workload set up, warmed and timed
// cfg.repeats times, each metric the median over the repeats.
func measure(w workload, cfg config) (summary, error) {
	slice := time.Duration(cfg.seconds / float64(cfg.repeats) * float64(time.Second))
	reps := make([]repeat, cfg.repeats)
	for i := range reps {
		var err error
		if reps[i], err = w.run(&env{seed: cfg.seed, slice: slice, scale: cfg.scale}); err != nil {
			return summary{}, fmt.Errorf("%s repeat %d: %w", w.name, i, err)
		}
	}
	s := summary{report: report{Correct: true, Metrics: make(map[string]metric)}, digest: reps[0].digest}
	fmt.Fprintf(os.Stderr, "%s  seed %d  %d repeats of %v, traffic over an in-process pipe, wall clock unless marked sim\n",
		w.name, cfg.seed, cfg.repeats, slice)
	for _, m := range endToEnd {
		v := make([]float64, len(reps))
		for i := range reps {
			v[i] = m.of(&reps[i])
		}
		med := median(v)
		if math.IsNaN(med) || math.IsInf(med, 0) {
			return s, fmt.Errorf("%s: %s is %v", w.name, m.name, med)
		}
		s.Metrics[m.name] = metric{med, m.unit}
		q1, q3 := quartiles(v)
		fmt.Fprintf(os.Stderr, "  %-20s %14.4f %-6s quartiles %.4f .. %.4f\n", m.name, med, m.unit, q1, q3)
	}
	// The p99 is printed for the reader and bounded by nothing: it moves
	// too much between runs on a small sandbox.
	sim, p99 := make([]float64, len(reps)), make([]float64, len(reps))
	for i, r := range reps {
		s.Attempted += r.attempted
		s.Failed += r.failed
		if r.digest != s.digest {
			fmt.Fprintf(os.Stderr, "  repeat %d digest %016x differs from %016x\n", i, r.digest, s.digest)
			s.Correct = false
		}
		if r.tailPct != 95 {
			fmt.Fprintf(os.Stderr, "  repeat %d: %d samples support p%d only; op_p95_us reports that\n", i, r.samples, r.tailPct)
		}
		sim[i], p99[i] = r.simPerOp, r.p99
	}
	s.simPerOp = median(sim)
	fmt.Fprintf(os.Stderr, "  %-20s %14.4f us\n", "op_p99_us", median(p99))
	s.Correct = s.Correct && s.Failed == 0
	fmt.Fprintf(os.Stderr, "  %-20s %14.4f %-6s\n  attempted %d  failed %d  latency samples per repeat %d  digest %016x\n",
		"sim_us_per_op", s.simPerOp, "sim_us", s.Attempted, s.Failed, reps[0].samples, s.digest)
	return s, nil
}

// printLine writes a report as the one JSON line the contract reads.
func printLine(r report) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// runOne is one invocation as the driver makes it.
func runOne(w workload, cfg config, trace bool, traceOut string) error {
	if !trace {
		s, err := measure(w, cfg)
		if err != nil {
			return err
		}
		return printLine(s.report)
	}
	rep, tr, err := measureLayers(w, cfg)
	if err != nil {
		return err
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: %s is %v", w.name, name, m.Value)
		}
	}
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s traced: self time by span name\n", w.name)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-44s %v\n", name, self[name])
	}
	if gap := rep.Metrics["ladder.gap_share"].Value; math.Abs(gap) > 0.10 {
		fmt.Fprintf(os.Stderr, "  ladder self times miss launch_sync's per-launch time by %.1f%%\n", 100*gap)
	}
	if traceOut != "" {
		if err := tr.dump(traceOut); err != nil {
			return err
		}
	}
	return printLine(rep)
}

// ---- BENCHMARK.json and the self-check ----

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	f, err := os.Open(path)
	if err != nil {
		return spec, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	err = dec.Decode(&spec)
	return spec, err
}

// selfcheck runs every workload in two sets of the same binary, runs
// untraced runs a set on consecutive seeds, and compares the sets'
// medians against the bounds BENCHMARK.json fixes. A pair further apart
// than its bound is unresolved: the benchmark cannot tell a change of
// that size from its own noise. Digests, failures and the simulated
// clock must agree exactly.
func selfcheck(cfg config, runs int, spec benchSpec) error {
	bad := 0
	for _, w := range workloads {
		var sets [2][]summary
		for set := range sets {
			for k := 0; k < runs; k++ {
				c := cfg
				c.seed += int64(k)
				s, err := measure(w, c)
				if err != nil {
					return err
				}
				sets[set] = append(sets[set], s)
			}
		}
		fmt.Printf("%s\n  %-20s %14s %14s %8s %8s %8s %8s\n", w.name, "metric", "set A", "set B", "diff", "bound", "spread A", "spread B")
		for _, m := range spec.EndToEnd {
			var v [2][]float64
			for set := range sets {
				for _, s := range sets[set] {
					v[set] = append(v[set], s.Metrics[m.Name].Value)
				}
			}
			a, b := median(v[0]), median(v[1])
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > m.Bound {
				verdict = "  unresolved"
				bad++
			}
			// The spreads need a few runs a set; with one they print NaN.
			fmt.Printf("  %-20s %14.4f %14.4f %7.2f%% %7.2f%% %7.2f%% %7.2f%%%s\n",
				m.Name, a, b, 100*diff, 100*m.Bound, 100*spread(v[0]), 100*spread(v[1]), verdict)
		}
		for k := 0; k < runs; k++ {
			a, b := sets[0][k], sets[1][k]
			exactSim := !strings.HasPrefix(w.name, "serve_decode") // round composition there depends on timing
			if a.digest != b.digest || !a.Correct || !b.Correct || (exactSim && a.simPerOp != b.simPerOp) {
				fmt.Printf("  seed %d: digests %016x %016x, failed %d %d, sim_us_per_op %v %v  MISMATCH\n",
					cfg.seed+int64(k), a.digest, b.digest, a.Failed, b.Failed, a.simPerOp, b.simPerOp)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-check: %d pairs unresolved or mismatched", bad)
	}
	fmt.Println("self-check: every pair within its bound; digests, failures and simulated time identical")
	return nil
}

func run() error {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run in place of the end-to-end ones")
		traceOut  = flag.String("trace-out", "", "with -trace 1, write the benchmark's spans to this file as JSON")
		check     = flag.Bool("selfcheck", false, "run every workload in two sets and compare them against the bounds")
		checkRuns = flag.Int("runs", 1, "with -selfcheck, untraced runs per set")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the module root: %w", err)
	}
	cfg := config{seed: *seed, seconds: *seconds, repeats: repeats, scale: 1, minBatches: 3}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if *check {
		return selfcheck(cfg, *checkRuns, spec)
	}
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		return runOne(w, cfg, *trace == 1, *traceOut)
	}
	if *traceOut != "" {
		return errors.New("-trace-out needs one -workload")
	}
	for _, w := range workloads {
		if err := runOne(w, cfg, *trace == 1, ""); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
