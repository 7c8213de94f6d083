package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"shark/internal/obs"
)

// bench is one workload, set up and ready to measure.
type bench struct {
	env *env
	// l is the workload's lineitem table; olap is the analyst query set
	// over the workload's lineitem_mem and supplier_mem, with reference
	// answers (traced runs only); own are the workload's own
	// statements. The traced run's layer probes use all three.
	l    *lineitem
	olap func() []benchQuery
	own  []probeStmt
	// measure runs the measured phase once for about d, recording
	// spans in tr (nil: untraced), and adds its checks and end-to-end
	// metrics to rep.
	measure func(ctx context.Context, d time.Duration, tr *tracer, rep *report) error
}

// runWorkload measures b untraced. A traced run instead measures it in
// four half-length phases, untraced and traced in ABBA order, reports
// the difference between the two kinds as the tracing overhead, takes
// the per-layer metrics from the traced phases' spans and counters,
// and probes each layer.
func runWorkload(ctx context.Context, cfg *runConfig, b *bench) (*report, error) {
	if !cfg.traced {
		rep := &report{}
		if err := b.measure(ctx, cfg.measure, nil, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}
	// The phases (true: traced) run U T T U on even seeds and T U U T
	// on odd ones, so warm-up and linear drift fall on both kinds alike
	// and their difference is the tracing cost.
	order, orderName := []bool{false, true, true, false}, "U T T U"
	if cfg.seed%2 != 0 {
		order, orderName = []bool{true, false, false, true}, "T U U T"
	}
	e := b.env
	tr := newTracer()
	po := &phaseObserver{}
	var delta counters
	var untraced, traced []*report
	for _, on := range order {
		r := &report{}
		if !on {
			if err := b.measure(ctx, cfg.measure/2, nil, r); err != nil {
				return nil, err
			}
			untraced = append(untraced, r)
			continue
		}
		before, err := e.snapshot()
		if err != nil {
			return nil, err
		}
		po.start(e)
		tr.begin()
		err = b.measure(ctx, cfg.measure/2, tr, r)
		tr.finish()
		po.stop(e)
		if err != nil {
			return nil, err
		}
		after, err := e.snapshot()
		if err != nil {
			return nil, err
		}
		delta.add(before, after)
		traced = append(traced, r)
	}
	rep := untraced[0]
	for _, r := range []*report{untraced[1], traced[0], traced[1]} {
		rep.attempted += r.attempted
		rep.failed += r.failed
		rep.mismatches = append(rep.mismatches, r.mismatches...)
	}
	rep.notef("traced run: four %v phases, untraced (U) and traced (T) in the order %s", cfg.measure/2, orderName)
	reportOverhead(rep, untraced, traced)
	phaseMetrics(rep, e, tr, po, delta)
	clientOverhead(rep, tr, e.srv.QueryLog().Snapshot())
	(&layerProbes{e: e, l: b.l, own: b.own, olap: b.olap(), rep: rep, ctx: ctx}).run()
	path := filepath.Join(filepath.Dir(cfg.dir), "spans.jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.notef("spans of the traced phases written to %s", path)
	return rep, nil
}

// meanE2E is the mean of each end-to-end metric over reps.
func meanE2E(reps []*report) map[string]float64 {
	out := map[string]float64{}
	for _, r := range reps {
		for _, m := range r.e2e {
			out[m.name] += m.value / float64(len(reps))
		}
	}
	return out
}

// reportOverhead prints each end-to-end metric's mean over the traced
// phases next to its mean over the untraced ones, and reports the
// geomean's difference as the tracing overhead.
func reportOverhead(rep *report, untraced, traced []*report) {
	u, t := meanE2E(untraced), meanE2E(traced)
	for _, m := range untraced[0].e2e {
		if m.name == "setup_s" {
			continue
		}
		diff := (t[m.name] - u[m.name]) / u[m.name] * 100
		rep.notef("tracing overhead: %-28s untraced %12.4f  traced %12.4f %s  (%+.2f%%)",
			m.name, u[m.name], t[m.name], m.unit, diff)
		if m.name == "query_geomean_ms" {
			rep.perLayer("trace.overhead_pct", "%", diff, len(untraced)+len(traced))
		}
	}
}

// phaseMetrics derives the per-layer metrics of the server-side layers
// from the counters the traced phases moved (delta), the task and
// backlog samples taken during them, and the benchmark's spans.
func phaseMetrics(rep *report, e *env, tr *tracer, obs *phaseObserver, delta counters) {
	client := tr.closed(stmtSpan)
	stmts := int64(len(client))
	per := func(v int64) float64 { return perRow(float64(v), stmts) }
	n := int(stmts)

	rep.perLayer("rdd.tasks_per_stmt", "count", per(delta.tasks), n)
	rep.perLayer("rdd.stages_per_stmt", "count", per(delta.stages), n)
	tasks := msAll(obs.tasks)
	rep.perLayer("rdd.task_p50_ms", "ms", median(tasks), len(tasks))
	rep.perLayer("rdd.task_p99_ms", "ms", percentile(tasks, 0.99), len(tasks))
	hits := float64(delta.cacheHits)
	reads := hits + float64(delta.remoteHits+delta.diskHits+delta.recomputes)
	rep.perLayer("rdd.cache_hit_ratio", "ratio", ratioOrZero(hits, reads), int(reads))

	// Simulated overhead: the per-task launch sleep the benchmark set
	// in the cluster's config, apart from compute.
	rep.notef("simulated overhead: Spark profile (event-driven dispatch), TaskLaunchOverhead %v per task, %d workers x %d slots",
		e.taskLaunch, benchWorkers, benchSlots)
	rep.perLayer("cluster.sim_overhead_ms_per_stmt", "ms",
		per(delta.tasks)*float64(e.taskLaunch)/float64(time.Millisecond), n)
	rep.perLayer("cluster.backlog_mean", "count", perRow(obs.sum, int64(obs.samples)), obs.samples)
	rep.perLayer("cluster.spilled_bytes", "B", float64(delta.spilledBytes), 0)
	rep.perLayer("cluster.disk_hits", "count", float64(delta.diskHit), 0)
	rep.perLayer("cluster.evictions", "count", float64(delta.spilledBlocks+delta.dropped), 0)

	rep.perLayer("shuffle.fetch_calls_per_stmt", "count", per(delta.fetchCalls), n)
	rep.perLayer("shuffle.pairs_per_stmt", "count", per(delta.fetchedPairs), n)
	rep.perLayer("shuffle.spilled_reads", "count", float64(delta.spilledReads), 0)

	planHits := float64(delta.planHits)
	rep.perLayer("core.plan_cache_hit_ratio", "ratio",
		ratioOrZero(planHits, planHits+float64(delta.planMisses)), 0)

	serverP50, served := histQuantile(nil, delta.stmtHist, 0.5)
	rep.perLayer("server.stmt_p50_ms", "ms", serverP50*1e3, served)

	fetched := tr.closed("driver.fetch")
	var fetchTime time.Duration
	for _, f := range fetched {
		fetchTime += f.duration()
	}
	rep.perLayer("driver.next_ns_per_row", "ns", nsPerRow(fetchTime, tr.rowsIn("driver.fetch")), len(fetched))

	rep.perLayer("go.gc_cpu_frac", "ratio", ratioOrZero(delta.goc.gcCPU, delta.goc.totalCPU), 0)
	rep.notef("traced phases: %d statements, %d tasks", stmts, delta.tasks)
}

// ratioOrZero is a/b, or 0 when b is 0 (nothing to take a share of).
func ratioOrZero(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// newBench is a workload constructor: it generates the workload's
// inputs from the seed and sets the environment up.
type newBench func(ctx context.Context, cfg *runConfig) (*bench, error)

func runNamed(cfg *runConfig, ctor newBench) (*report, error) {
	ctx := context.Background()
	b, err := ctor(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	defer b.env.close()
	return runWorkload(ctx, cfg, b)
}

// clientOverhead pairs each statement span of the traced phases with
// the server's trace of the same statement (the k-th statement of a
// session on both sides) and reports the median of client latency
// minus server time: driver, wire and result-fetch cost.
func clientOverhead(rep *report, tr *tracer, log []obs.TraceSnapshot) {
	server := map[string][]obs.TraceSnapshot{}
	for _, t := range log {
		if tr.during(t.Start) {
			server[t.Session] = append(server[t.Session], t)
		}
	}
	client := map[string][]span{}
	for _, s := range tr.closed(stmtSpan) {
		client[s.Session] = append(client[s.Session], s)
	}
	var over []float64
	unpaired := 0
	for sess, cs := range client {
		ss := server[sess]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start.Before(ss[j].Start) })
		if len(ss) != len(cs) {
			unpaired += len(cs)
			continue
		}
		for i, c := range cs {
			over = append(over, ms(c.duration())-ss[i].Seconds*1e3)
		}
	}
	if unpaired > 0 {
		rep.notef("client overhead: %d statements left out, their session's server log did not match", unpaired)
	}
	rep.perLayer("client.overhead_p50_ms", "ms", median(over), len(over))
}
