// Command benchpairs is the protocol a performance claim in this
// repository is held to (choosing-metrics guide §8), as one command:
// the parent commit is unpacked beside the working tree, the unmodified
// benchmark (BENCHMARK.json's command) is run in both, in pairs that
// alternate which side goes first, and the table CHANGES.md quotes is
// printed — per workload and end-to-end metric each side's median and
// quartiles, their ratio, how many pairs the change won, and a verdict
// against the bound BENCHMARK.json fixes for the metric; then failures,
// simulated time and digest, which must agree exactly.
//
//	go run ./cmd/benchpairs -parent HEAD~1 -n 10 -seed 7
//
// The environment is passed through to the benchmark, so
// GOMAXPROCS=1 gives the one-processor row. Run from the module root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

type specMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
}

// A run is what one invocation of the benchmark on one workload said.
type run struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	sim, digest string // as printed: compared, never computed with
}

var (
	simLine    = regexp.MustCompile(`sim_us_per_op\s+(\S+)`)
	digestLine = regexp.MustCompile(`digest ([0-9a-f]{16})`)
)

// bench runs the benchmark in dir on one workload.
func bench(dir string, command []string, workload string, seed int64) (run, error) {
	var r run
	cmd := exec.Command(command[0], append(command[1:], "-workload", workload, "-seed", fmt.Sprint(seed))...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("%s in %s: %w\n%s", workload, dir, err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("%s in %s: last line of output: %w", workload, dir, err)
	}
	if m := simLine.FindSubmatch(stderr.Bytes()); m != nil {
		r.sim = string(m[1])
	}
	if m := digestLine.FindSubmatch(stderr.Bytes()); m != nil {
		r.digest = string(m[1])
	}
	return r, nil
}

// unpack puts the committed files of ref under dir, replacing what was
// there.
func unpack(ref, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", ref)
	extract := exec.Command("tar", "-x", "-C", dir)
	var err error
	if extract.Stdin, err = archive.StdoutPipe(); err != nil {
		return err
	}
	archive.Stderr, extract.Stderr = os.Stderr, os.Stderr
	if err := extract.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", ref, err)
	}
	return extract.Wait()
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles are Python's statistics.quantiles(v, n=4), as in
// benchmark/stats.go: the contract's definition of a metric's spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// verdict judges one metric on one workload by the guide's rules. A
// gain needs nine pairs in ten and medians further apart than the
// parent's own quartiles; a loss is a median worse by more than the
// bound; and where the parent's runs spread wider than the bound the
// pair is unresolved unless the sides do not even overlap.
func verdict(m specMetric, parent, change []float64, wins int) string {
	sign := 1.0 // makes larger better
	if m.Better == "lower" {
		sign = -1
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	gain := sign * (cm - pm)
	switch {
	case float64(wins) >= 0.9*float64(len(parent)) && gain > q3-q1:
		return "better"
	case -gain > m.Bound*math.Abs(pm):
		return "WORSE"
	case q3-q1 > m.Bound*math.Abs(pm):
		return "unresolved"
	}
	return "within bound"
}

func main() {
	parent := flag.String("parent", "", "git ref of the parent commit (required)")
	n := flag.Int("n", 10, "pairs of runs per workload")
	only := flag.String("workloads", "", "comma-separated workloads (default: all of BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed, the same on both sides")
	flag.Parse()
	if err := pairs(*parent, *n, *only, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func pairs(parentRef string, n int, only string, seed int64) error {
	if parentRef == "" || n < 1 {
		return fmt.Errorf("need -parent <ref> and -n >= 1")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the module root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return err
	}
	var workloads []string
	for _, w := range sp.Workloads {
		if only == "" || strings.Contains(","+only+",", ","+w.Name+",") {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return fmt.Errorf("no workload of BENCHMARK.json is among %q", only)
	}
	parentDir := filepath.Join(".bench_build", "pairs", "parent")
	if err := unpack(parentRef, parentDir); err != nil {
		return err
	}
	dirs := [2]string{parentDir, "."} // parent, change

	fmt.Printf("%d pairs against %s, seed %d, GOMAXPROCS=%q\n\n", n, parentRef, seed, os.Getenv("GOMAXPROCS"))
	fmt.Println("| workload | metric | parent median [q1–q3] | change median [q1–q3] | change/parent | wins | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|")
	var exact []string
	for _, w := range workloads {
		var runs [2][]run
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // even pairs start with the parent, odd ones with the change
				fmt.Fprintf(os.Stderr, "%s pair %d/%d: %s\n", w, i+1, n, [2]string{"parent", "change"}[side])
				r, err := bench(dirs[side], sp.Command, w, seed)
				if err != nil {
					return err
				}
				runs[side] = append(runs[side], r)
			}
		}
		for _, m := range sp.EndToEnd {
			var v [2][]float64
			wins := 0
			for i := 0; i < n; i++ {
				p, c := runs[0][i].Metrics[m.Name].Value, runs[1][i].Metrics[m.Name].Value
				v[0], v[1] = append(v[0], p), append(v[1], c)
				if m.Better == "lower" && c < p || m.Better == "higher" && c > p {
					wins++
				}
			}
			cell := func(v []float64) string {
				q1, q3 := quartiles(v)
				return fmt.Sprintf("%.6g [%.6g–%.6g]", median(v), q1, q3)
			}
			fmt.Printf("| %s | %s | %s | %s | %.3f | %d/%d | %s |\n", w, m.Name, cell(v[0]), cell(v[1]),
				median(v[1])/median(v[0]), wins, n, verdict(m, v[0], v[1], wins))
		}
		// What must not move at all, over every run of each side.
		var failed [2]int
		var sims, digests [2]map[string]bool
		for side := range runs {
			sims[side], digests[side] = map[string]bool{}, map[string]bool{}
			for _, r := range runs[side] {
				failed[side] += r.Failed
				sims[side][r.sim], digests[side][r.digest] = true, true
			}
		}
		keys := func(m map[string]bool) string {
			var k []string
			for s := range m {
				k = append(k, s)
			}
			sort.Strings(k)
			return strings.Join(k, " ")
		}
		// Simulated time is exact where a side repeats it exactly
		// (serve_decode's rounds depend on timing; its digests do not).
		simExact := len(sims[0]) == 1 && len(sims[1]) == 1
		same := "identical"
		if simExact && keys(sims[0]) != keys(sims[1]) || keys(digests[0]) != keys(digests[1]) || failed[0] != failed[1] {
			same = "DIFFERENT"
		}
		exact = append(exact, fmt.Sprintf("| %s | %d | %d | %s | %s | %s | %s | %s |", w, failed[0], failed[1],
			keys(sims[0]), keys(sims[1]), keys(digests[0]), keys(digests[1]), same))
	}
	fmt.Println("\n| workload | failed parent | failed change | sim_us_per_op parent | change | digest parent | change | |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	fmt.Println(strings.Join(exact, "\n"))
	return nil
}
