package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported number. n is the sample count behind it (0
// for a count or a ratio of totals).
type metric struct {
	name, unit string
	value      float64
	n          int
}

// report collects a run's outcome: operation counts, the first
// mismatches, the metrics, and free-form notes printed above them.
type report struct {
	attempted, failed int
	mismatches        []string
	e2e, layer        []metric
	// extra holds the workload's own headline numbers: printed with
	// the end-to-end metrics but not part of the result line, whose
	// metric set is the same for every workload.
	extra []metric
	notes []string
}

// maxMismatchLines bounds how many mismatch descriptions are printed.
const maxMismatchLines = 20

// check records one attempted operation; err non-nil marks it failed.
func (r *report) check(op string, err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.mismatches) < maxMismatchLines {
		r.mismatches = append(r.mismatches, op+": "+err.Error())
	}
}

func (r *report) endToEnd(name, unit string, v float64, n int) {
	r.e2e = append(r.e2e, metric{name, unit, v, n})
}

func (r *report) workload(name, unit string, v float64, n int) {
	r.extra = append(r.extra, metric{name, unit, v, n})
}

func (r *report) perLayer(name, unit string, v float64, n int) {
	r.layer = append(r.layer, metric{name, unit, v, n})
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d\n", workload, r.attempted, r.failed)
	for _, m := range r.mismatches {
		fmt.Fprintln(w, "  FAILED", m)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, " ", n)
	}
	for _, group := range []struct {
		title string
		ms    []metric
	}{{"end-to-end", r.e2e}, {"workload", r.extra}, {"per-layer", r.layer}} {
		if len(group.ms) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s metrics:\n", group.title)
		ms := append([]metric(nil), group.ms...)
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
		for _, m := range ms {
			samples := ""
			if m.n > 0 {
				samples = fmt.Sprintf("  (n=%d)", m.n)
			}
			fmt.Fprintf(w, "  %-40s %14.4f %s%s\n", m.name, m.value, m.unit, samples)
		}
	}
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the last line the benchmark prints.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result builds the result line: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one. A metric
// that could not be computed (NaN or infinite) is reported as 0 and
// makes the run incorrect.
func (r *report) result(traced bool) jsonResult {
	ms := r.e2e
	if traced {
		ms = r.layer
	}
	out := jsonResult{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(ms))}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			out.Correct = false
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
	}
	return out
}
