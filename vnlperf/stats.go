package main

import (
	"math"
	"sort"
	"time"
)

// samples collects durations of one request class. Percentiles use the
// nearest-rank rule, so a reported p99 is a latency some request really
// had.
type samples struct {
	d   []time.Duration
	win []int // window of each sample, when recorded with addAt
}

func (s *samples) add(d time.Duration) { s.d = append(s.d, d) }

func (s *samples) addAt(w int, d time.Duration) {
	s.d = append(s.d, d)
	s.win = append(s.win, w)
}

// windowMedian is the median over windows of each window's median.
func (s *samples) windowMedian() time.Duration {
	var by [windows]samples
	for i, d := range s.d {
		by[s.win[i]].add(d)
	}
	var meds []float64
	for _, w := range by {
		if w.n() > 0 {
			meds = append(meds, float64(w.pct(50)))
		}
	}
	return time.Duration(median(meds))
}

func (s *samples) n() int { return len(s.d) }

// pct returns the q-th percentile (0 < q ≤ 100) by nearest rank, or 0 for
// an empty set.
func (s *samples) pct(q float64) time.Duration {
	if len(s.d) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond is how many samples lie strictly past the q-th percentile's rank:
// the tail a percentile is estimated from.
func (s *samples) beyond(q float64) int {
	rank := int(math.Ceil(q / 100 * float64(len(s.d))))
	return len(s.d) - rank
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a float slice (mean of the middle pair for even lengths).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) with the
// default exclusive method, so the comparison reads the same spreads the
// acceptance rule is stated in.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		// Exclusive method: position j = i*(n+1)/4, clamped, interpolated.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
