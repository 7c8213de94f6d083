package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"shark/internal/columnar"
	"shark/internal/expr"
	"shark/internal/plan"
	"shark/internal/row"
	"shark/internal/sqlparse"
	"shark/internal/wire"
)

// probeStmt is one of a workload's own statements, with arguments for
// its parameters, replayed through the layers one call at a time.
type probeStmt struct {
	class, sql string
	args       []any
	check      func() rowCheck // nil: not a checked read
}

// counters is a snapshot of every public counter the per-layer
// metrics difference across the traced measured phases, or the sum of
// those differences.
type counters struct {
	tasks, stages                                 int64
	cacheHits, remoteHits, diskHits, recomputes   int64
	fetchCalls, fetchedPairs, spilledReads        int64
	spilledBytes, spilledBlocks, dropped, diskHit int64
	planHits, planMisses                          int64
	goc                                           goCounters
	stmtHist                                      map[float64]float64
}

func (e *env) snapshot() (counters, error) {
	cl := e.srv.Cluster()
	sm, dm, sh, ds := cl.SchedulerMetrics(), cl.Metrics(), cl.ShuffleMetrics(), cl.DiskStats()
	c := counters{
		tasks: sm.TasksLaunched.Load(), stages: sm.StagesRun.Load(),
		cacheHits: sm.CacheHits.Load(), remoteHits: sm.RemoteCacheHits.Load(),
		diskHits: sm.DiskHits.Load(), recomputes: sm.CacheRecomputes.Load(),
		fetchCalls: sh.FetchCalls.Load(), fetchedPairs: sh.FetchedPairs.Load(), spilledReads: sh.SpilledReads.Load(),
		spilledBytes: ds.BytesSpilled, spilledBlocks: ds.SpilledBlocks, dropped: dm.CacheEvictions.Load(),
		diskHit: ds.DiskHits,
		goc:     readGoCounters(),
	}
	c.planHits, c.planMisses = e.loader.Plans.Stats()
	var err error
	c.stmtHist, err = e.scrapeHistogram("shark_server_statement_seconds")
	return c, err
}

// add adds what the counters moved from before to after into c.
func (c *counters) add(before, after counters) {
	c.tasks += after.tasks - before.tasks
	c.stages += after.stages - before.stages
	c.cacheHits += after.cacheHits - before.cacheHits
	c.remoteHits += after.remoteHits - before.remoteHits
	c.diskHits += after.diskHits - before.diskHits
	c.recomputes += after.recomputes - before.recomputes
	c.fetchCalls += after.fetchCalls - before.fetchCalls
	c.fetchedPairs += after.fetchedPairs - before.fetchedPairs
	c.spilledReads += after.spilledReads - before.spilledReads
	c.spilledBytes += after.spilledBytes - before.spilledBytes
	c.spilledBlocks += after.spilledBlocks - before.spilledBlocks
	c.dropped += after.dropped - before.dropped
	c.diskHit += after.diskHit - before.diskHit
	c.planHits += after.planHits - before.planHits
	c.planMisses += after.planMisses - before.planMisses
	c.goc.allocBytes += after.goc.allocBytes - before.goc.allocBytes
	c.goc.gcCPU += after.goc.gcCPU - before.goc.gcCPU
	c.goc.totalCPU += after.goc.totalCPU - before.goc.totalCPU
	if c.stmtHist == nil {
		c.stmtHist = map[float64]float64{}
	}
	for b, n := range after.stmtHist {
		c.stmtHist[b] += n - before.stmtHist[b]
	}
}

// scrapeHistogram reads the cumulative buckets (upper bound in seconds
// -> count) of one histogram from the sidecar's /metrics.
func (e *env) scrapeHistogram(name string) (map[float64]float64, error) {
	resp, err := http.Get(e.obsURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[float64]float64{}
	sc := bufio.NewScanner(resp.Body)
	prefix := name + `_bucket{le="`
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		le, rest, ok := strings.Cut(line[len(prefix):], `"} `)
		if !ok {
			return nil, fmt.Errorf("metrics: bad bucket line %q", line)
		}
		bound, err := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			bound, err = 1e308, nil
		}
		if err != nil {
			return nil, fmt.Errorf("metrics: bad bound in %q", line)
		}
		n, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad count in %q", line)
		}
		out[bound] = n
	}
	return out, sc.Err()
}

// histQuantile interpolates the q-quantile of the observations between
// two cumulative-bucket scrapes, in seconds. It returns the number of
// observations too.
func histQuantile(before, after map[float64]float64, q float64) (float64, int) {
	bounds := make([]float64, 0, len(after))
	for b := range after {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0, 0
	}
	total := after[bounds[len(bounds)-1]] - before[bounds[len(bounds)-1]]
	if total <= 0 {
		return 0, 0
	}
	target := q * total
	prevBound, prevCum := 0.0, 0.0
	for _, b := range bounds {
		cum := after[b] - before[b]
		if cum >= target {
			if b >= 1e308 {
				return prevBound, int(total)
			}
			frac := (target - prevCum) / (cum - prevCum)
			return prevBound + frac*(b-prevBound), int(total)
		}
		prevBound, prevCum = b, cum
	}
	return prevBound, int(total)
}

// phaseObserver gathers what the cluster reports while the traced
// phases run: every task's service time and the dispatcher backlog.
type phaseObserver struct {
	mu      sync.Mutex
	tasks   []time.Duration
	backlog *poller
	sum     float64
	samples int
}

// start installs the task observer and starts the backlog sampler for
// one traced phase; the samples of every phase add up. The observer
// replaces the server's task histogram.
func (o *phaseObserver) start(e *env) {
	cl := e.srv.Cluster()
	cl.SetTaskObserver(func(d time.Duration) {
		o.mu.Lock()
		o.tasks = append(o.tasks, d)
		o.mu.Unlock()
	})
	o.backlog = startPoller(time.Millisecond, func() {
		o.sum += float64(cl.Backlog())
		o.samples++
	})
}

func (o *phaseObserver) stop(e *env) {
	e.srv.Cluster().SetTaskObserver(nil)
	o.backlog.halt()
}

// layerProbes times single calls into the parse, bind, analyze, expr,
// columnar, row, dfs and wire layers over the workload's own
// statements and rows, and the engine over the olap query set.
type layerProbes struct {
	e     *env
	l     *lineitem
	own   []probeStmt
	olap  []benchQuery
	rep   *report
	ctx   context.Context
	batch []row.Row // result rows for the wire probes
}

// probeReps is how many times a sub-millisecond call is repeated; its
// median is reported.
const probeReps = 200

// sampleRows is how many lineitem rows the per-row codec probes use.
const sampleRows = 32_768

func medianCall(fn func()) time.Duration {
	ds := make([]float64, probeReps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

func toRow(args []any) row.Row {
	if len(args) == 0 {
		return nil
	}
	return row.Row(args)
}

func (p *layerProbes) run() {
	p.frontEnd()
	p.engine()
	p.codecs()
}

// frontEnd: sqlparse (Normalize+Parse, Bind) and plan (Analyze).
func (p *layerProbes) frontEnd() {
	var parse, bind, analyze []float64
	for _, st := range p.own {
		parse = append(parse, float64(medianCall(func() {
			sqlparse.Normalize(st.sql)
			sqlparse.Parse(st.sql)
		}).Nanoseconds())/1e3)
		stmt, err := sqlparse.Parse(st.sql)
		if err != nil {
			p.rep.check("parse "+st.class, err)
			continue
		}
		bind = append(bind, float64(medianCall(func() { sqlparse.Bind(stmt, toRow(st.args)) }).Nanoseconds())/1e3)
		bound, err := sqlparse.Bind(stmt, toRow(st.args))
		if err != nil {
			p.rep.check("bind "+st.class, err)
			continue
		}
		if sel, ok := bound.(*sqlparse.SelectStmt); ok {
			analyze = append(analyze, float64(medianCall(func() { plan.Analyze(p.e.loader.Cat, sel) }).Nanoseconds())/1e3)
		}
	}
	p.rep.perLayer("sqlparse.parse_us", "us", median(parse), len(parse))
	p.rep.perLayer("sqlparse.bind_us", "us", median(bind), len(bind))
	p.rep.perLayer("plan.analyze_us", "us", median(analyze), len(analyze))
}

// analyzed parses, binds and analyzes one statement.
func (p *layerProbes) analyzed(sqlText string, args []any) (plan.Node, error) {
	stmt, err := sqlparse.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	if stmt, err = sqlparse.Bind(stmt, toRow(args)); err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT")
	}
	return plan.Analyze(p.e.loader.Cat, sel)
}

// checkRows runs an engine result through a result check.
func checkRows(rs []row.Row, chk rowCheck) error {
	for _, r := range rs {
		chk.add(r)
	}
	return chk.done()
}

// engine: exec.Engine.RunCtx over the olap query set (per query, and
// per input row with the allocations it made) and over the workload's
// own reads (pruning, shuffle bytes); expr compiled predicates.
func (p *layerProbes) engine() {
	eng := p.e.loader.Engine
	var total time.Duration
	var allocs uint64
	var topk time.Duration
	var filters []scanFilter
	for _, q := range p.olap {
		n, err := p.analyzed(q.sql, nil)
		if err != nil {
			p.rep.check("exec "+q.name, err)
			continue
		}
		filters = append(filters, scanFilters(n)...)
		sm := p.e.srv.Cluster().SchedulerMetrics()
		pde0 := [3]int64{sm.BroadcastConversions.Load(), sm.AdaptiveCoalesces.Load(), sm.SkewSplits.Load()}
		g0 := readGoCounters()
		t0 := time.Now()
		res, err := eng.RunCtx(p.ctx, n)
		d := time.Since(t0)
		allocs += readGoCounters().allocBytes - g0.allocBytes
		if q.name == joinQuery {
			// PDE decisions of the join statement.
			p.rep.perLayer("pde.broadcast_conversions", "count", float64(sm.BroadcastConversions.Load()-pde0[0]), 1)
			p.rep.perLayer("pde.coalesces", "count", float64(sm.AdaptiveCoalesces.Load()-pde0[1]), 1)
			p.rep.perLayer("pde.skew_splits", "count", float64(sm.SkewSplits.Load()-pde0[2]), 1)
		}
		if err == nil {
			err = checkRows(res.Rows, q.check())
		}
		p.rep.check("exec "+q.name, err)
		total += d
		if q.name == topkQuery {
			topk = d
		}
		p.rep.perLayer("exec.run_ms."+q.name, "ms", ms(d), 1)
	}
	scanned := int64(len(p.olap)) * int64(p.l.n)
	p.rep.perLayer("exec.ns_per_row", "ns", nsPerRow(total, scanned), len(p.olap))
	p.rep.perLayer("go.alloc_bytes_per_row", "B", perRow(float64(allocs), scanned), len(p.olap))

	// Top-K cost beyond the scan that feeds it.
	if n, err := p.analyzed(topkScanSQL, nil); err == nil {
		t0 := time.Now()
		_, err = eng.RunCtx(p.ctx, n)
		p.rep.check("exec topk scan", err)
		p.rep.perLayer("exec.topk_extra_ms", "ms", ms(topk-time.Since(t0)), 1)
	} else {
		p.rep.check("exec topk scan", err)
	}

	var pruned, parts, shuffle int64
	var reads int
	for _, st := range p.own {
		if st.check == nil {
			continue
		}
		n, err := p.analyzed(st.sql, st.args)
		if err != nil {
			p.rep.check("exec "+st.class, err)
			continue
		}
		filters = append(filters, scanFilters(n)...)
		res, err := eng.RunCtx(p.ctx, n)
		if err == nil {
			err = checkRows(res.Rows, st.check())
		}
		p.rep.check("exec "+st.class, err)
		if err != nil {
			continue
		}
		reads++
		pruned += int64(res.Stats.PrunedPartitions)
		parts += int64(res.Stats.PrunedPartitions + res.Stats.ScannedPartitions)
		shuffle += res.Stats.ShuffleBytes
		if len(p.batch) < serverBatchRows {
			p.batch = append(p.batch, res.Rows[:min(len(res.Rows), serverBatchRows-len(p.batch))]...)
		}
	}
	p.rep.perLayer("exec.pruned_ratio", "ratio", perRow(float64(pruned), parts), reads)
	p.rep.perLayer("exec.shuffle_bytes_per_stmt", "B", perRow(float64(shuffle), int64(reads)), reads)

	// expr: the predicates of every probed scan, compiled, over sampled
	// rows in each scan's projected layout.
	sample := p.sample()
	var evals int64
	t0 := time.Now()
	for _, f := range filters {
		fn := f.e.Compile()
		proj := make(row.Row, len(f.cols))
		for _, r := range sample {
			for i, c := range f.cols {
				proj[i] = r[c]
			}
			fn(proj)
		}
		evals += int64(len(sample))
	}
	p.rep.perLayer("expr.compiled_ns_per_row", "ns", nsPerRow(time.Since(t0), evals), len(filters))
}

// serverBatchRows is the server's default rows per fetch batch.
const serverBatchRows = 512

type scanFilter struct {
	e    expr.Expr
	cols []int
}

// scanFilters collects the pushed-down predicates of every lineitem
// scan in a plan, with the table columns each scan projects.
func scanFilters(n plan.Node) []scanFilter {
	var out []scanFilter
	if s, ok := n.(*plan.Scan); ok && len(s.Table.Schema) == len(lineitemSchema) {
		for _, f := range s.Filters {
			out = append(out, scanFilter{f, s.NeededCols})
		}
	}
	for _, c := range n.Children() {
		out = append(out, scanFilters(c)...)
	}
	return out
}

func (p *layerProbes) sample() []row.Row {
	n := min(sampleRows, p.l.n)
	rows := make([]row.Row, n)
	for i := range rows {
		rows[i] = p.l.row(i)
	}
	return rows
}

// codecs: columnar build/row/marshal, row text and binary codecs, the
// DFS scan of the text table, and the wire result-batch codec.
func (p *layerProbes) codecs() {
	sample := p.sample()
	n := int64(len(sample))

	t0 := time.Now()
	b := columnar.NewBuilder(lineitemSchema)
	for _, r := range sample {
		if err := b.Append(r); err != nil {
			p.rep.check("columnar append", err)
			return
		}
	}
	part := b.Seal()
	p.rep.perLayer("columnar.build_ns_per_row", "ns", nsPerRow(time.Since(t0), n), int(n))
	t0 = time.Now()
	for i := 0; i < part.N; i++ {
		part.Row(i)
	}
	p.rep.perLayer("columnar.row_ns_per_row", "ns", nsPerRow(time.Since(t0), n), int(n))
	p.rep.perLayer("columnar.bytes_per_row", "B", perRow(float64(part.SizeBytes()), n), int(n))
	t0 = time.Now()
	part.MarshalShuffle()
	p.rep.perLayer("columnar.marshal_ns_per_row", "ns", nsPerRow(time.Since(t0), n), int(n))

	var text, bin []byte
	var lines []string
	for _, r := range sample {
		text = row.EncodeText(text[:0], r)
		lines = append(lines, strings.TrimSuffix(string(text), "\n"))
	}
	t0 = time.Now()
	for _, line := range lines {
		if _, err := row.DecodeText(line, lineitemSchema); err != nil {
			p.rep.check("row text decode", err)
			return
		}
	}
	p.rep.perLayer("row.text_decode_ns_per_row", "ns", nsPerRow(time.Since(t0), n), int(n))
	t0 = time.Now()
	for _, r := range sample {
		bin = row.EncodeBinary(bin, r)
	}
	p.rep.perLayer("row.binary_encode_ns_per_row", "ns", nsPerRow(time.Since(t0), n), int(n))
	t0 = time.Now()
	for rest := bin; len(rest) > 0; {
		_, used, err := row.DecodeBinary(rest)
		if err != nil {
			p.rep.check("row binary decode", err)
			return
		}
		rest = rest[used:]
	}
	p.rep.perLayer("row.binary_decode_ns_per_row", "ns", nsPerRow(time.Since(t0), n), int(n))

	p.dfsScan()
	p.wireCodec()
}

// dfsScan reads every block of the workload's text table.
func (p *layerProbes) dfsScan() {
	fs := p.e.loader.FS
	file := "data/bench/lineitem_txt"
	meta, err := fs.Stat(file)
	if err != nil {
		p.rep.check("dfs stat", err)
		return
	}
	var rows int64
	t0 := time.Now()
	for i := range meta.Blocks {
		rd, err := fs.OpenBlock(file, i)
		if err != nil {
			p.rep.check("dfs open", err)
			return
		}
		for err == nil {
			if _, err = rd.Next(); err == nil {
				rows++
			}
		}
		rd.Close()
		if err != io.EOF {
			p.rep.check("dfs read", err)
			return
		}
	}
	d := time.Since(t0)
	err = nil
	if rows != int64(p.l.n) {
		err = fmt.Errorf("dfs scan read %d rows, want %d", rows, p.l.n)
	}
	p.rep.check("dfs scan", err)
	p.rep.perLayer("dfs.scan_ms", "ms", ms(d), len(meta.Blocks))
}

// wireCodec encodes and parses one result batch of the workload's own
// reads as the server sends it.
func (p *layerProbes) wireCodec() {
	batch := p.batch
	if len(batch) == 0 {
		batch = p.sample()[:serverBatchRows]
	}
	n := int64(len(batch))
	msg := wire.Rows{Rows: batch, Done: true}
	var buf []byte
	enc := medianCall(func() { buf = wire.AppendMessage(buf[:0], 1, msg) })
	dec := medianCall(func() { wire.ParseMessage(buf) })
	p.rep.perLayer("wire.encode_ns_per_row", "ns", nsPerRow(enc, n), int(n))
	p.rep.perLayer("wire.decode_ns_per_row", "ns", nsPerRow(dec, n), int(n))
	p.rep.perLayer("wire.bytes_per_row", "B", perRow(float64(len(buf)), n), int(n))
}
