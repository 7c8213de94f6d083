package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by the
// nearest-rank rule: the smallest sample with at least q of the
// samples at or below it. It returns NaN for no samples. xs is not
// modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
// The product is rounded to 1e-9 first, so 0.9 x 100 is rank 90, not
// 91 from the float error in 0.9.
func rank(n int, q float64) int {
	r := int(math.Ceil(math.Round(q*float64(n)*1e9) / 1e9))
	return min(max(r, 1), n)
}

// median is the middle sample (the mean of the two middle samples for
// an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailOK reports whether the q-percentile of n samples has at least
// ten samples beyond it, the rule for reporting a tail percentile.
func tailOK(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= 10
}

// geomean is the geometric mean of positive values; NaN when xs is
// empty or holds a value <= 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// perRow divides a total by a row count; NaN when there are no rows.
func perRow(total float64, rows int64) float64 {
	if rows <= 0 {
		return math.NaN()
	}
	return total / float64(rows)
}

// nsPerRow is a duration spread over rows, in nanoseconds.
func nsPerRow(d time.Duration, rows int64) float64 {
	return perRow(float64(d.Nanoseconds()), rows)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// stmtLog collects the latencies of one workload's statements by class.
type stmtLog struct {
	byClass map[string][]time.Duration
	reads   []time.Duration
	// checkTime is client time spent comparing results, left out of
	// the throughput's wall time.
	checkTime time.Duration
}

func newStmtLog() *stmtLog { return &stmtLog{byClass: map[string][]time.Duration{}} }

func (s *stmtLog) add(class string, d time.Duration, read bool) {
	s.byClass[class] = append(s.byClass[class], d)
	if read {
		s.reads = append(s.reads, d)
	}
}

// classLine describes one class's latencies: median, sample count
// and range.
func (s *stmtLog) classLine(class string) string {
	ds := msAll(s.byClass[class])
	return fmt.Sprintf("%-22s median %9.3f ms (n=%d, min %.3f, max %.3f)",
		class, median(ds), len(ds), percentile(ds, 0), percentile(ds, 1))
}

// classGeomean is the geometric mean over classes of each class's
// median latency, in ms.
func (s *stmtLog) classGeomean(classes []string) float64 {
	var meds []float64
	for _, c := range classes {
		meds = append(meds, median(msAll(s.byClass[c])))
	}
	return geomean(meds)
}
