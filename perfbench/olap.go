package main

import (
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"shark"
	"shark/internal/row"
)

// benchQuery is one statement class with a check against its
// reference answer.
type benchQuery struct {
	name, sql string
	check     func() rowCheck
}

func dateLit(days int64) string { return "Date('" + row.FormatDate(days) + "')" }

// olapQueries builds the analyst query set over lineitem_mem and
// supplier_mem. Parameters (ship mode, thresholds, date windows) come
// from rng, within ranges narrow enough that every seed asks each
// query for about the same work; every reference answer is computed
// from the generated columns in plain Go.
func olapQueries(l *lineitem, s *supplier, rng *rand.Rand) []benchQuery {
	var qs []benchQuery

	// filter+COUNT
	mode := uint8(rng.Intn(len(shipModes)))
	minQty := int64(24 + rng.Intn(3))
	var cnt int64
	for i := 0; i < l.n; i++ {
		if l.mode[i] == mode && l.qty[i] > minQty {
			cnt++
		}
	}
	qs = append(qs, benchQuery{
		name: "filter_count",
		sql: fmt.Sprintf("SELECT COUNT(*) FROM lineitem_mem WHERE L_SHIPMODE = '%s' AND L_QUANTITY > %d",
			shipModes[mode], minQty),
		check: expect([][]any{{cnt}}, false),
	})

	// Q1-like multi-aggregate over (flag, mode) groups.
	cut := dateBase + dateDays - 1 - int64(90+rng.Intn(30))
	type q1 struct {
		qty       int64
		price, ds float64
		n         int64
	}
	g1 := map[[2]uint8]*q1{}
	for i := 0; i < l.n; i++ {
		if l.date[i] > cut {
			continue
		}
		k := [2]uint8{l.flag[i], l.mode[i]}
		a := g1[k]
		if a == nil {
			a = &q1{}
			g1[k] = a
		}
		a.qty += l.qty[i]
		a.price += l.price[i]
		a.ds += l.disc[i]
		a.n++
	}
	var w1 [][]any
	for k, a := range g1 {
		w1 = append(w1, []any{returnFlags[k[0]], shipModes[k[1]], a.qty, a.price, a.ds / float64(a.n), a.n})
	}
	qs = append(qs, benchQuery{
		name: "q1_multi_agg",
		sql: "SELECT L_RETURNFLAG, L_SHIPMODE, SUM(L_QUANTITY), SUM(L_EXTENDEDPRICE), AVG(L_DISCOUNT), COUNT(*) " +
			"FROM lineitem_mem WHERE L_RECEIPTDATE <= " + dateLit(cut) + " GROUP BY L_RETURNFLAG, L_SHIPMODE",
		check: expect(w1, false),
	})

	// Q6-like SUM(a*b) with BETWEEN.
	lo := dateBase + int64(rng.Intn(dateDays-365))
	hi := lo + 364
	maxQty := int64(23 + rng.Intn(3))
	var rev float64
	for i := 0; i < l.n; i++ {
		if l.date[i] >= lo && l.date[i] <= hi && l.disc[i] >= 0.05 && l.disc[i] <= 0.07 && l.qty[i] < maxQty {
			rev += l.price[i] * l.disc[i]
		}
	}
	qs = append(qs, benchQuery{
		name: "q6_sum_between",
		sql: fmt.Sprintf("SELECT SUM(L_EXTENDEDPRICE * L_DISCOUNT) FROM lineitem_mem WHERE L_RECEIPTDATE BETWEEN %s AND %s "+
			"AND L_DISCOUNT BETWEEN 0.05 AND 0.07 AND L_QUANTITY < %d", dateLit(lo), dateLit(hi), maxQty),
		check: expect([][]any{{rev}}, false),
	})

	// 2.5K-group aggregate.
	type dq struct{ n, qty int64 }
	gd := map[int64]*dq{}
	for i := 0; i < l.n; i++ {
		a := gd[l.date[i]]
		if a == nil {
			a = &dq{}
			gd[l.date[i]] = a
		}
		a.n++
		a.qty += l.qty[i]
	}
	var wd [][]any
	for d, a := range gd {
		wd = append(wd, []any{d, a.n, a.qty})
	}
	qs = append(qs, benchQuery{
		name:  "date_groups_2500",
		sql:   "SELECT L_RECEIPTDATE, COUNT(*), SUM(L_QUANTITY) FROM lineitem_mem GROUP BY L_RECEIPTDATE",
		check: expect(wd, false),
	})

	// Supplier-group MIN/MAX aggregate (one group per supplier). With
	// it the set has an odd number of classes, so the statement median
	// falls inside one class instead of between two.
	type sq struct {
		n        int64
		min, max float64
	}
	gs := make([]sq, l.nSuppliers)
	for i := 0; i < l.n; i++ {
		a := &gs[l.suppKey[i]]
		if a.n == 0 || l.price[i] < a.min {
			a.min = l.price[i]
		}
		if a.n == 0 || l.price[i] > a.max {
			a.max = l.price[i]
		}
		a.n++
	}
	var ws [][]any
	for k, a := range gs {
		if a.n > 0 {
			ws = append(ws, []any{int64(k), a.n, a.min, a.max})
		}
	}
	qs = append(qs, benchQuery{
		name:  "supplier_groups_minmax",
		sql:   "SELECT L_SUPPKEY, COUNT(*), MIN(L_EXTENDEDPRICE), MAX(L_EXTENDEDPRICE) FROM lineitem_mem GROUP BY L_SUPPKEY",
		check: expect(ws, false),
	})

	// ~n/4-group aggregate: a large result over the wire.
	gn := make([]int64, l.nOrders)
	gp := make([]float64, l.nOrders)
	for i := 0; i < l.n; i++ {
		k := l.orderKey(i)
		gn[k]++
		gp[k] += l.price[i]
	}
	qs = append(qs, benchQuery{
		name:  "order_groups",
		sql:   "SELECT L_ORDERKEY, COUNT(*), SUM(L_EXTENDEDPRICE) FROM lineitem_mem GROUP BY L_ORDERKEY",
		check: func() rowCheck { return &orderGroupsCheck{n: gn, price: gp, seen: make([]bool, len(gn))} },
	})

	// ORDER BY ... LIMIT 10. The sort keys are the whole projection, so
	// ties cannot make the order ambiguous.
	idx := make([]int, l.n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if l.price[i] != l.price[j] {
			return l.price[i] > l.price[j]
		}
		if l.orderKey(i) != l.orderKey(j) {
			return l.orderKey(i) < l.orderKey(j)
		}
		return l.partKey[i] < l.partKey[j]
	})
	var wt [][]any
	for _, i := range idx[:10] {
		wt = append(wt, []any{l.price[i], l.orderKey(i), l.partKey[i]})
	}
	qs = append(qs, benchQuery{
		name: topkQuery,
		sql: "SELECT L_EXTENDEDPRICE, L_ORDERKEY, L_PARTKEY FROM lineitem_mem " +
			"ORDER BY L_EXTENDEDPRICE DESC, L_ORDERKEY, L_PARTKEY LIMIT 10",
		check: expect(wt, true),
	})

	// lineitem ⋈ supplier aggregate.
	joinQty := int64(24 + rng.Intn(3))
	type jq struct {
		n     int64
		price float64
	}
	gj := map[int64]*jq{}
	for i := 0; i < l.n; i++ {
		if l.qty[i] <= joinQty {
			continue
		}
		nat := s.nation[l.suppKey[i]]
		a := gj[nat]
		if a == nil {
			a = &jq{}
			gj[nat] = a
		}
		a.n++
		a.price += l.price[i]
	}
	var wj [][]any
	for nat, a := range gj {
		wj = append(wj, []any{nat, a.n, a.price})
	}
	qs = append(qs, benchQuery{
		name: joinQuery,
		sql: fmt.Sprintf("SELECT s.S_NATIONKEY, COUNT(*), SUM(l.L_EXTENDEDPRICE) FROM lineitem_mem l "+
			"JOIN supplier_mem s ON l.L_SUPPKEY = s.S_SUPPKEY WHERE l.L_QUANTITY > %d GROUP BY s.S_NATIONKEY", joinQty),
		check: expect(wj, false),
	})

	// Wide export: ~18% of the rows, every column but the flags.
	elo := dateBase + int64(rng.Intn(dateDays-450))
	ehi := elo + 449
	var inWindow int
	for i := 0; i < l.n; i++ {
		if l.date[i] >= elo && l.date[i] <= ehi {
			inWindow++
		}
	}
	qs = append(qs, benchQuery{
		name: exportQuery,
		sql: "SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY, L_QUANTITY, L_EXTENDEDPRICE, L_DISCOUNT, L_SHIPMODE, L_RECEIPTDATE " +
			"FROM lineitem_mem WHERE L_RECEIPTDATE BETWEEN " + dateLit(elo) + " AND " + dateLit(ehi),
		check: func() rowCheck {
			return &exportCheck{l: l, lo: elo, hi: ehi, want: inWindow, seen: make([]bool, l.n)}
		},
	})
	return qs
}

// orderGroupsCheck verifies the one-row-per-order aggregate against
// per-order counts and price sums.
type orderGroupsCheck struct {
	n     []int64
	price []float64
	seen  []bool
	rows  int
	err   error
}

func (c *orderGroupsCheck) add(r []any) {
	c.rows++
	if c.err != nil {
		return
	}
	k, ok := r[0].(int64)
	if len(r) != 3 || !ok || k < 0 || k >= int64(len(c.n)) || c.seen[k] {
		c.err = fmt.Errorf("unexpected row %v", r)
		return
	}
	c.seen[k] = true
	if !valueEqual(r[1], c.n[k]) || !valueEqual(r[2], c.price[k]) {
		c.err = fmt.Errorf("order %d: got %v, want [%d %v]", k, r[1:], c.n[k], c.price[k])
	}
}

func (c *orderGroupsCheck) done() error {
	if c.err == nil && c.rows != len(c.n) {
		return fmt.Errorf("got %d rows, want %d", c.rows, len(c.n))
	}
	return c.err
}

// exportCheck verifies the wide export: each row must be a distinct
// lineitem row of its order, with every exported column equal, whose
// date lies in the window; and every row of the window must come back.
type exportCheck struct {
	l      *lineitem
	lo, hi int64
	want   int
	seen   []bool
	rows   int
	err    error
}

func (c *exportCheck) add(r []any) {
	c.rows++
	if c.err != nil {
		return
	}
	if k, ok := r[0].(int64); ok && len(r) == 8 {
		for i := int(k * 4); i >= 0 && i < c.l.n && i < int(k*4+4); i++ {
			if !c.seen[i] && c.matches(i, r) {
				c.seen[i] = true
				return
			}
		}
	}
	c.err = fmt.Errorf("row %v is not an unreturned lineitem row in the window", r)
}

// matches compares exported columns exactly: they are stored values,
// not aggregates.
func (c *exportCheck) matches(i int, r []any) bool {
	l := c.l
	mode, _ := r[6].(string)
	return l.date[i] >= c.lo && l.date[i] <= c.hi &&
		isInt(r[1], l.partKey[i]) && isInt(r[2], l.suppKey[i]) && isInt(r[3], l.qty[i]) &&
		isFloat(r[4], l.price[i]) && isFloat(r[5], l.disc[i]) && mode == shipModes[l.mode[i]] && isInt(r[7], l.date[i])
}

func isInt(v any, want int64) bool {
	x, ok := v.(int64)
	return ok && x == want
}

func isFloat(v any, want float64) bool {
	x, ok := v.(float64)
	return ok && x == want
}

func (c *exportCheck) done() error {
	if c.err == nil && c.rows != c.want {
		return fmt.Errorf("got %d rows, want %d", c.rows, c.want)
	}
	return c.err
}

const (
	exportQuery = "wide_export"
	topkQuery   = "topk_limit10"
	joinQuery   = "join_supplier_agg"
	// topkScanSQL is the top-K query's scan without ORDER BY ... LIMIT.
	topkScanSQL = "SELECT L_EXTENDEDPRICE, L_ORDERKEY, L_PARTKEY FROM lineitem_mem"
)

// Sizes of the olap_cached tables. 500K lineitem rows (about 13 MB
// columnar) keep a pass over the query set near 5 s on a 2-core box,
// so a 20 s run has four samples of every class: at 1M rows, two passes
// left the run-to-run spread of query_geomean_ms near 20%.
const (
	olapRows      = 500_000
	olapSuppliers = 10_000
)

func newOlap(ctx context.Context, cfg *runConfig) (*bench, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	l := genLineitem(rng.Int63(), olapRows, olapSuppliers)
	s := genSupplier(rng.Int63(), olapSuppliers)
	su, err := setUp(ctx, cfg, shark.ClusterConfig{}, []tableSpec{
		{name: "lineitem", schema: lineitemSchema, n: l.n, rowAt: l.row, level: "true"},
		{name: "supplier", schema: supplierSchema, n: olapSuppliers, rowAt: s.row, level: "true"},
	})
	if err != nil {
		return nil, err
	}
	// The reference answers are computed after set-up, so set-up does
	// not run with them on the heap.
	qs := olapQueries(l, s, rng)
	b := &bench{env: su.env, l: l, olap: func() []benchQuery { return qs }}
	names := make([]string, len(qs))
	for i, q := range qs {
		names[i] = q.name
		b.own = append(b.own, probeStmt{class: q.name, sql: q.sql, check: q.check})
	}
	b.measure = func(ctx context.Context, d time.Duration, tr *tracer, rep *report) error {
		conn, sess, err := pinConn(ctx, su.env.db)
		if err != nil {
			return err
		}
		defer conn.Close()
		log := newStmtLog()
		var firstRow []time.Duration
		heap := startHeapSampler()
		start := time.Now()
		// Closed loop on one connection: whole passes over the query
		// set, each in a fresh seed-shuffled order, until time is up.
		for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
			for _, qi := range rng.Perm(len(qs)) {
				q := qs[qi]
				sp := tr.statement(sess)
				chk := q.check()
				rows, first, total, err := timedRows(func() (*sql.Rows, error) { return conn.QueryContext(ctx, q.sql) }, chk)
				tr.end(sp)
				tr.fetch(sp, first, total, rows)
				c0 := time.Now()
				if err == nil {
					err = chk.done()
				}
				log.checkTime += time.Since(c0)
				rep.check(q.name, err)
				if err != nil {
					continue
				}
				log.add(q.name, total, true)
				if q.name == exportQuery {
					firstRow = append(firstRow, first)
				}
			}
		}
		wall := time.Since(start) - log.checkTime
		heapPeak, cpu := heap.stop()

		rep.notef("lineitem_mem %d rows, supplier_mem %d rows; %d passes over %d queries, 1 connection",
			l.n, olapSuppliers, len(log.byClass[qs[0].name]), len(qs))
		for _, q := range qs {
			rep.notef("%s", log.classLine(q.name))
		}
		ratio, err := su.env.storedRatio("lineitem")
		rep.check("stat lineitem_mem", err)
		addCommon(rep, su, log, cpu, names, heapPeak, wall, su.loadRowsPerS, ratio)
		rep.workload("export_first_row_ms", "ms", median(msAll(firstRow)), len(firstRow))
		return nil
	}
	return b, nil
}
