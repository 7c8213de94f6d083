package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {100, 0.9, true}, {99, 0.9, false}, {20, 0.5, true},
	} {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %v", got)
	}
	if got := geomean([]float64{2, 8, 4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8, 4) = %v", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {-1, 4}} {
		if !math.IsNaN(geomean(xs)) {
			t.Errorf("geomean(%v) must be NaN", xs)
		}
	}
}

func TestPerRowNormalisation(t *testing.T) {
	if got := nsPerRow(time.Microsecond, 10); got != 100 {
		t.Errorf("1µs over 10 rows = %v ns/row", got)
	}
	if got := perRow(1<<20, 1<<10); got != 1024 {
		t.Errorf("1 MiB over 1024 rows = %v B/row", got)
	}
	if !math.IsNaN(perRow(5, 0)) {
		t.Error("per-row value over no rows must be NaN")
	}
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("ms(1.5ms) = %v", got)
	}
}

func TestClassGeomeanUsesMedians(t *testing.T) {
	log := newStmtLog()
	for _, d := range []time.Duration{1, 2, 100} {
		log.add("a", d*time.Millisecond, true)
	}
	log.add("b", 8*time.Millisecond, false)
	if got := log.classGeomean([]string{"a", "b"}); math.Abs(got-4) > 1e-9 {
		t.Errorf("geomean of medians 2 and 8 = %v, want 4", got)
	}
	if len(log.reads) != 3 {
		t.Errorf("reads = %d, want 3", len(log.reads))
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	before := map[float64]float64{0.001: 5, 0.002: 5, 0.004: 5, 1e308: 5}
	// 100 new observations: 50 in (0, 1ms], 50 in (2ms, 4ms].
	after := map[float64]float64{0.001: 55, 0.002: 55, 0.004: 105, 1e308: 105}
	if got, n := histQuantile(before, after, 0.5); n != 100 || math.Abs(got-0.001) > 1e-12 {
		t.Errorf("p50 = %v over %d, want 0.001 over 100", got, n)
	}
	if got, _ := histQuantile(before, after, 0.75); math.Abs(got-0.003) > 1e-12 {
		t.Errorf("p75 = %v, want 0.003", got)
	}
	if _, n := histQuantile(before, before, 0.5); n != 0 {
		t.Errorf("no new observations counted %d", n)
	}
}

func TestResultRejectsUncomputedMetric(t *testing.T) {
	rep := &report{}
	rep.check("ok", nil)
	rep.endToEnd("x_ms", "ms", math.NaN(), 0)
	res := rep.result(false)
	if res.Correct || res.Metrics["x_ms"].Value != 0 {
		t.Errorf("NaN metric gave %+v", res)
	}
	rep = &report{}
	rep.check("ok", nil)
	rep.endToEnd("x_ms", "ms", 1.5, 3)
	rep.perLayer("y", "count", 2, 0)
	res = rep.result(false)
	if !res.Correct || len(res.Metrics) != 1 || res.Metrics["x_ms"] != (jsonMetric{1.5, "ms"}) {
		t.Errorf("untraced result = %+v", res)
	}
	if res := rep.result(true); len(res.Metrics) != 1 || res.Metrics["y"].Value != 2 {
		t.Errorf("traced result = %+v", res)
	}
}
