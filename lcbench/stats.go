package main

import (
	"math"
	"sort"
	"time"
)

// opStats collects one operation type's outcomes within one phase of a run.
type opStats struct {
	attempted int
	failed    int
	// ms holds the latency of every op that succeeded, in milliseconds.
	ms []float64
}

func (s *opStats) record(d time.Duration, err error) {
	s.attempted++
	if err != nil {
		s.failed++
		return
	}
	s.ms = append(s.ms, float64(d.Nanoseconds())/1e6)
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, numpy's default definition. It returns 0 for an
// empty sample, such as an op type whose every op failed; the run then
// reports failures and is not correct.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio divides, giving 0 for an empty base so that an unexercised layer
// reads 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
