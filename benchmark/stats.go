package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"cricket/internal/netsim"
)

// sortedCopy returns v sorted ascending without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of sorted data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercent picks the tail percentile n samples can support: the
// highest of p99, p95 and p90, no higher than top, that leaves at least
// ten samples beyond it (choosing-metrics guide §1), or the median when
// even p90 does not.
func tailPercent(n, top int) int {
	for _, p := range []int{99, 95, 90} {
		if p <= top && n*(100-p) >= 1000 {
			return p
		}
	}
	return 50
}

// tail returns that percentile of sorted data and which one it was.
func tail(sorted []float64, top int) (value float64, percent int) {
	percent = tailPercent(len(sorted), top)
	return quantile(sorted, float64(percent)/100), percent
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) (the default, exclusive method) does:
// the builder contract defines a metric's spread with that function.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// A meter brackets a timed section with the process-wide counters the
// end-to-end metrics divide by op count: heap allocations (client and
// server share the process) and the simulated clock.
type meter struct {
	mem   runtime.MemStats
	start time.Time
	sim   time.Duration
	clock *netsim.Clock
}

type usage struct {
	mallocs, bytes uint64
	wall, sim      time.Duration
}

func startMeter(clock *netsim.Clock) *meter {
	m := &meter{clock: clock, sim: clock.Now()}
	runtime.ReadMemStats(&m.mem)
	m.start = time.Now()
	return m
}

func (m *meter) stop() usage {
	wall := time.Since(m.start)
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return usage{
		wall:    wall,
		mallocs: now.Mallocs - m.mem.Mallocs,
		bytes:   now.TotalAlloc - m.mem.TotalAlloc,
		sim:     m.clock.Now() - m.sim,
	}
}

// liveHeapMiB forces a collection and reports what survived it.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
