package obs

import "time"

// An SLO is a quantile budget over a latency distribution: "the q
// quantile must stay at or under Budget".
type SLO struct {
	Quantile float64
	Budget   time.Duration
}

// Value returns the SLO's quantile estimate over snap.
func (s SLO) Value(snap HistSnapshot) time.Duration {
	return snap.Quantile(s.Quantile)
}

// Met reports whether snap satisfies the budget. An empty window has
// no violating observation, so it trivially meets the SLO.
func (s SLO) Met(snap HistSnapshot) bool {
	if snap.Count == 0 {
		return true
	}
	return s.Value(snap) <= s.Budget
}
