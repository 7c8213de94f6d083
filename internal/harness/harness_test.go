package harness

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"
)

// tinyScale keeps harness tests fast.
func tinyScale() Scale {
	return Scale{
		Rankings: 3000, UserVisits: 8000,
		Lineitem: 6000, LineitemBig: 16000, Supplier: 2000,
		Sessions: 8000, MLPoints: 4000, MLDim: 5, MLIters: 2,
		Workers: 4, Slots: 2, Reps: 1,
	}
}

func runOne(t *testing.T, id string) *Report {
	t.Helper()
	r := &Report{}
	if err := Run(context.Background(), id, tinyScale(), r); err != nil {
		t.Fatalf("experiment %s: %v", id, err)
	}
	if len(r.Entries) == 0 {
		t.Fatalf("experiment %s produced no entries", id)
	}
	return r
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig5_selection", "fig5_agg", "fig6_join", "loading",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"tbl_columnar", "abl_shuffle", "abl_compile", "abl_binpack",
		"abl_dispatch", "abl_memory", "abl_storage", "abl_concurrency", "pruning",
	}
	have := map[string]bool{}
	for _, id := range ExperimentIDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := Run(context.Background(), "nope", tinyScale(), &Report{}); err == nil {
		t.Error("unknown id must fail")
	}
}

func TestFig5Selection(t *testing.T) {
	r := runOne(t, "fig5_selection")
	series := map[string]float64{}
	for _, e := range r.Entries {
		series[e.Series] = e.Seconds
	}
	if len(series) != 3 {
		t.Fatalf("series = %v", series)
	}
	// Shape: Shark (mem) beats Hive.
	if series["Shark"] >= series["Hive"] {
		t.Errorf("Shark (%.3fs) should beat Hive (%.3fs)", series["Shark"], series["Hive"])
	}
}

func TestFig8Strategies(t *testing.T) {
	r := runOne(t, "fig8")
	if len(r.Entries) != 3 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	notes := map[string]string{}
	secs := map[string]float64{}
	for _, e := range r.Entries {
		notes[e.Series] = e.Notes
		secs[e.Series] = e.Seconds
	}
	if !strings.Contains(notes["Static"], "shuffle-join") {
		t.Errorf("static should shuffle-join: %q", notes["Static"])
	}
	if !strings.Contains(notes["Adaptive"], "map-join") {
		t.Errorf("adaptive should map-join: %q", notes["Adaptive"])
	}
	if !strings.Contains(notes["Static + Adaptive"], "map-join") {
		t.Errorf("static+adaptive should map-join: %q", notes["Static + Adaptive"])
	}
	// Shape: static+adaptive fastest (paper: 3x over static).
	if secs["Static + Adaptive"] >= secs["Static"] {
		t.Errorf("static+adaptive (%.3f) should beat static (%.3f)",
			secs["Static + Adaptive"], secs["Static"])
	}
}

func TestFig9FaultTolerance(t *testing.T) {
	// Enough rows for several DFS blocks, so the cached table spans
	// every worker and the killed one holds partitions to recover.
	sc := tinyScale()
	sc.Lineitem = 40000
	r := &Report{}
	if err := Run(context.Background(), "fig9", sc, r); err != nil {
		t.Fatal(err)
	}
	work := map[string]float64{}
	for _, e := range r.Entries {
		work[e.Series] = e.Value
	}
	if len(work) != 4 {
		t.Fatalf("series: %v", work)
	}
	// Shape: recovery is cheaper than a full reload. Asserted on work
	// done, not on one wall-clock sample against another: the failed
	// query rebuilds only the lost partitions, a reload all of them.
	recomputed := work["Single failure (recovery in-query)"]
	reloaded := work["Full reload (load + query)"]
	if recomputed <= 0 || recomputed >= reloaded {
		t.Errorf("recovery recomputed %.0f partitions, want between 1 and the %.0f a full reload loads",
			recomputed, reloaded)
	}
}

// TestStorageExperiment: the tiered-storage ablation's internal
// assertions (identical results, DiskHits > 0 on the spill point,
// recomputes strictly below the eviction-only point) hold at tiny
// scale, and all four sweep points report.
func TestStorageExperiment(t *testing.T) {
	r := runOne(t, "abl_storage")
	if len(r.Entries) != 4 {
		t.Fatalf("entries = %d, want 4 sweep points", len(r.Entries))
	}
	notes := map[string]string{}
	for _, e := range r.Entries {
		notes[e.Series] = e.Notes
	}
	if n := notes["25% memory + disk, MEMORY_AND_DISK"]; !strings.Contains(n, "disk hits") {
		t.Errorf("spill point notes missing disk hits: %q", n)
	}
}

func TestColumnarFootprint(t *testing.T) {
	r := runOne(t, "tbl_columnar")
	vals := map[string]float64{}
	for _, e := range r.Entries {
		vals[e.Series] = e.Value
	}
	boxed := vals["boxed rows (MB)"]
	ser := vals["serialized (MB)"]
	col := vals["columnar+compressed (MB)"]
	if !(col < ser && ser < boxed) {
		t.Errorf("expected columnar < serialized < boxed, got %.2f / %.2f / %.2f", col, ser, boxed)
	}
	// §3.2: roughly 3x between boxed and serialized
	if boxed/ser < 1.5 {
		t.Errorf("boxed/serialized ratio too small: %.2f", boxed/ser)
	}
}

func TestPruningExperiment(t *testing.T) {
	r := runOne(t, "pruning")
	if len(r.Entries) != 2 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	on, off := r.Entries[0], r.Entries[1]
	if !strings.Contains(on.Notes, "/") {
		t.Errorf("notes should contain scan fractions: %q", on.Notes)
	}
	_ = off
}

func TestLoadingThroughput(t *testing.T) {
	// Loading needs enough data for I/O cost to dominate fixed
	// scheduling overhead, so this test uses a larger input.
	sc := tinyScale()
	sc.UserVisits = 60000
	// Shape: memstore ingest faster than replicated DFS ingest,
	// compared on the medians of three runs rather than on one sample
	// of each.
	var dfsT, memT []float64
	for range 3 {
		r := &Report{}
		if err := Run(context.Background(), "loading", sc, r); err != nil {
			t.Fatal(err)
		}
		if len(r.Entries) != 2 {
			t.Fatalf("entries = %d", len(r.Entries))
		}
		dfsT = append(dfsT, r.Entries[0].Seconds)
		memT = append(memT, r.Entries[1].Seconds)
	}
	sort.Float64s(dfsT)
	sort.Float64s(memT)
	if memT[1] >= dfsT[1] {
		t.Errorf("median memstore load (%.3f, runs %v) should beat median DFS load (%.3f, runs %v)",
			memT[1], memT, dfsT[1], dfsT)
	}
}

func TestDispatchExperiment(t *testing.T) {
	r := runOne(t, "abl_dispatch")
	if len(r.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(r.Entries))
	}
	for _, e := range r.Entries {
		if e.Seconds <= 0 {
			t.Errorf("series %q has no timing", e.Series)
		}
		if e.Notes == "" {
			t.Errorf("series %q missing metrics notes", e.Series)
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{}
	r.Add("exp1", "A", 1.5, "note")
	r.Add("exp1", "B", 3.0, "")
	r.AddValue("exp2", "bytes", 42, "")
	r.AddClusterNote("exp1", "shark env", "steals 1 events/2 tasks")
	var buf bytes.Buffer
	r.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"exp1", "A", "2.0x", "42.00", "dispatcher / cache metrics", "steals 1 events/2 tasks"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	r.Markdown(&buf)
	md := buf.String()
	if !strings.Contains(md, "| series |") {
		t.Error("markdown header missing")
	}
	if !strings.Contains(md, "### dispatcher / cache metrics") {
		t.Error("markdown cluster metrics section missing")
	}
}

// TestClusterMetricsInEveryReport: any experiment that builds an Env
// leaves a dispatcher/cache metrics note in the report — not only the
// dedicated scheduling ablations.
func TestClusterMetricsInEveryReport(t *testing.T) {
	r := runOne(t, "fig5_selection")
	if len(r.ClusterNotes) == 0 {
		t.Fatal("fig5_selection report has no cluster metrics notes")
	}
	n := r.ClusterNotes[0]
	if n.Experiment != "fig5_selection" || !strings.Contains(n.Notes, "steals") {
		t.Errorf("unexpected cluster note: %+v", n)
	}
}

// TestConcurrencyExperiment: the multi-tenant ablation reports both
// policies, and fair sharing keeps short-query latency strictly below
// FIFO while a long scan floods the cluster (the redesign's headline
// claim). The comparison is wall-clock, so a noisy CI machine gets up
// to three attempts before the shape assertion fails; the typical
// margin is several-fold.
func TestConcurrencyExperiment(t *testing.T) {
	var fifo, fair float64
	for attempt := 0; attempt < 3; attempt++ {
		r := runOne(t, "abl_concurrency")
		if len(r.Entries) != 2 {
			t.Fatalf("entries = %d, want 2 (FIFO + fair)", len(r.Entries))
		}
		fifo, fair = 0, 0
		for _, e := range r.Entries {
			if e.Seconds <= 0 {
				t.Fatalf("series %q has no timing", e.Series)
			}
			if e.Notes == "" {
				t.Fatalf("series %q missing p50/session notes", e.Series)
			}
			if strings.Contains(e.Series, "FIFO") {
				fifo = e.Seconds
			} else {
				fair = e.Seconds
			}
		}
		if fifo == 0 || fair == 0 {
			t.Fatalf("missing a policy series: %+v", r.Entries)
		}
		if fair < fifo {
			return
		}
		t.Logf("attempt %d: fair p95 %.4fs not below FIFO %.4fs; retrying", attempt+1, fair, fifo)
	}
	t.Errorf("short-query p95 under fair sharing (%.4fs) should be strictly below FIFO (%.4fs) in at least one of 3 attempts", fair, fifo)
}
