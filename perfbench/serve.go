package main

import (
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"shark"
)

// Sizes and mix of serve_mixed. The mix is an assumption, not taken
// from a measured trace: the read shares (45% range aggregates, 40%
// point lookups, 15% supplier lookups, in run), the Zipf shape, the
// range width and the refresh rate are picked to make a short-query,
// dashboard-like load in which every statement touches one or two
// partitions.
const (
	serveRows      = 250_000
	serveSuppliers = 10_000
	serveConns     = 2
	// rangeWidth is the order-key span of a range aggregate: 4 rows a
	// key, so one or two cached partitions after min/max pruning.
	rangeWidth = 500
	// Each statement of connection 0 is a rollup refresh (DROP +
	// cached CTAS) with probability 1/refreshEvery, drawn from the seed.
	refreshEvery = 25
	// zipfS and zipfV shape the key popularity of every read class.
	zipfS, zipfV = 1.1, 8
)

// Statement classes of serve_mixed.
const (
	classRange    = "range_agg"
	classPoint    = "point_lookup"
	classSupplier = "supplier_lookup"
	classRefresh  = "rollup_refresh"
)

var serveClasses = []string{classRange, classPoint, classSupplier, classRefresh}

const (
	rangeSQL    = "SELECT COUNT(*), SUM(L_QUANTITY), SUM(L_EXTENDEDPRICE) FROM lineitem_mem WHERE L_ORDERKEY BETWEEN ? AND ?"
	pointSQL    = "SELECT L_PARTKEY, L_SUPPKEY, L_QUANTITY, L_EXTENDEDPRICE FROM lineitem_mem WHERE L_ORDERKEY = ?"
	supplierSQL = "SELECT S_NAME, S_NATIONKEY FROM supplier_mem WHERE S_SUPPKEY = ?"
)

// refreshSQL rebuilds the cached rollup over the orders below maxKey.
func refreshSQL(maxKey int64) string {
	return fmt.Sprintf(`CREATE TABLE rollup_mem TBLPROPERTIES ("shark.cache"="true") AS `+
		`SELECT L_SHIPMODE, COUNT(*), SUM(L_QUANTITY) FROM lineitem_mem WHERE L_ORDERKEY < %d GROUP BY L_SHIPMODE`, maxKey)
}

// keyPicker draws Zipf-popular keys and scatters the popular ranks
// over the key space (a multiplicative hash), so hot keys do not all
// share one partition.
type keyPicker struct {
	z *rand.Zipf
	n uint64
}

const scatter = 2654435761

func newKeyPicker(rng *rand.Rand, n int64) *keyPicker {
	return &keyPicker{z: rand.NewZipf(rng, zipfS, zipfV, uint64(n-1)), n: uint64(n)}
}

func (k *keyPicker) next() int64 { return int64(k.z.Uint64() * scatter % k.n) }

// serveRefs answers serve_mixed's statements from the generated rows.
type serveRefs struct {
	l *lineitem
	s *supplier
	// cumQty holds prefix sums of L_QUANTITY in row order (row i has
	// order key i/4).
	cumQty []int64
}

func newServeRefs(l *lineitem, s *supplier) *serveRefs {
	r := &serveRefs{l: l, s: s, cumQty: make([]int64, l.n+1)}
	for i := 0; i < l.n; i++ {
		r.cumQty[i+1] = r.cumQty[i] + l.qty[i]
	}
	return r
}

// keyRows is the row interval [lo, hi) of order keys lo..hi.
func (r *serveRefs) keyRows(lo, hi int64) (int, int) {
	a, b := int(lo*4), int(hi*4+4)
	if b > r.l.n {
		b = r.l.n
	}
	return a, b
}

func (r *serveRefs) rangeAgg(lo, hi int64) [][]any {
	a, b := r.keyRows(lo, hi)
	// A float sum from prefix differences would add its own rounding;
	// sum the rows directly.
	var price float64
	for i := a; i < b; i++ {
		price += r.l.price[i]
	}
	return [][]any{{int64(b - a), r.cumQty[b] - r.cumQty[a], price}}
}

func (r *serveRefs) point(key int64) [][]any {
	a, b := r.keyRows(key, key)
	var out [][]any
	for i := a; i < b; i++ {
		out = append(out, []any{r.l.partKey[i], r.l.suppKey[i], r.l.qty[i], r.l.price[i]})
	}
	return out
}

func (r *serveRefs) supplier(key int64) [][]any {
	return [][]any{{r.s.name[key], r.s.nation[key]}}
}

func (r *serveRefs) rollup(maxKey int64) [][]any {
	_, b := r.keyRows(0, maxKey-1)
	n := make([]int64, len(shipModes))
	q := make([]int64, len(shipModes))
	for i := 0; i < b; i++ {
		n[r.l.mode[i]]++
		q[r.l.mode[i]] += r.l.qty[i]
	}
	var out [][]any
	for m := range shipModes {
		if n[m] > 0 {
			out = append(out, []any{shipModes[m], n[m], q[m]})
		}
	}
	return out
}

// serveClient is one closed-loop connection's state and results.
type serveClient struct {
	id    int
	rng   *rand.Rand
	keys  *keyPicker
	supps *keyPicker
	log   *stmtLog
	rep   report
}

// probesPerClass is how many statements of each read class the
// traced run's layer probes replay.
const probesPerClass = 10

func newServe(ctx context.Context, cfg *runConfig) (*bench, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	l := genLineitem(rng.Int63(), serveRows, serveSuppliers)
	s := genSupplier(rng.Int63(), serveSuppliers)
	probeSeed := rng.Int63()
	refs := newServeRefs(l, s)
	su, err := setUp(ctx, cfg, shark.ClusterConfig{}, []tableSpec{
		{name: "lineitem", schema: lineitemSchema, n: l.n, rowAt: l.row, level: "true"},
		{name: "supplier", schema: supplierSchema, n: serveSuppliers, rowAt: s.row, level: "true"},
	})
	if err != nil {
		return nil, err
	}
	b := &bench{env: su.env, l: l, olap: func() []benchQuery {
		return olapQueries(l, s, rand.New(rand.NewSource(probeSeed)))
	}}
	prng := rand.New(rand.NewSource(probeSeed))
	keys, supps := newKeyPicker(prng, l.nOrders-rangeWidth), newKeyPicker(prng, serveSuppliers)
	for i := 0; i < probesPerClass; i++ {
		lo, k, sk := keys.next(), keys.next(), supps.next()
		b.own = append(b.own,
			probeStmt{classRange, rangeSQL, []any{lo, lo + rangeWidth - 1}, expect(refs.rangeAgg(lo, lo+rangeWidth-1), false)},
			probeStmt{classPoint, pointSQL, []any{k}, expect(refs.point(k), false)},
			probeStmt{classSupplier, supplierSQL, []any{sk}, expect(refs.supplier(sk), false)})
	}
	b.own = append(b.own, probeStmt{class: classRefresh, sql: refreshSQL(1000)})

	b.measure = func(ctx context.Context, d time.Duration, tr *tracer, rep *report) error {
		clients := make([]*serveClient, serveConns)
		for i := range clients {
			crng := rand.New(rand.NewSource(rng.Int63()))
			clients[i] = &serveClient{id: i, rng: crng, log: newStmtLog(),
				keys:  newKeyPicker(crng, l.nOrders-rangeWidth),
				supps: newKeyPicker(crng, serveSuppliers)}
		}
		heap := startHeapSampler()
		start := time.Now()
		deadline := start.Add(d)
		var wg sync.WaitGroup
		errs := make([]error, len(clients))
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = c.run(ctx, su.env.db, refs, deadline, tr)
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		heapPeak, cpu := heap.stop()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}

		log := newStmtLog()
		for _, c := range clients {
			rep.attempted += c.rep.attempted
			rep.failed += c.rep.failed
			rep.mismatches = append(rep.mismatches, c.rep.mismatches...)
			for class, ds := range c.log.byClass {
				log.byClass[class] = append(log.byClass[class], ds...)
			}
			log.reads = append(log.reads, c.log.reads...)
			log.checkTime += c.log.checkTime
		}
		// Result checks are client think time on both connections.
		wall -= log.checkTime / serveConns
		rep.notef("lineitem_mem %d rows, supplier_mem %d rows; %d closed-loop connections, 1 in %d statements of connection 0 a refresh",
			l.n, serveSuppliers, serveConns, refreshEvery)
		for _, c := range serveClasses {
			rep.notef("%s", log.classLine(c))
		}
		ratio, err := su.env.storedRatio("lineitem")
		rep.check("stat lineitem_mem", err)
		addCommon(rep, su, log, cpu, serveClasses, heapPeak, wall, su.loadRowsPerS, ratio)
		reads := msAll(log.reads)
		if tailOK(len(reads), 0.99) {
			rep.workload("read_p99_ms", "ms", percentile(reads, 0.99), len(reads))
		} else {
			rep.notef("read_p99_ms not reported: %d reads leave fewer than 10 beyond the 99th percentile", len(reads))
		}
		writes := msAll(log.byClass[classRefresh])
		rep.workload("write_p50_ms", "ms", median(writes), len(writes))
		return nil
	}
	return b, nil
}

// run drives one connection until deadline: prepared reads with Zipf
// keys and, on connection 0, rollup refreshes at seeded positions (the
// first statement is always one), each followed by a read that checks
// it.
func (c *serveClient) run(ctx context.Context, db *sql.DB, refs *serveRefs, deadline time.Time, tr *tracer) error {
	conn, sess, err := pinConn(ctx, db)
	if err != nil {
		return err
	}
	defer conn.Close()
	prep := map[string]*sql.Stmt{}
	for _, q := range []string{rangeSQL, pointSQL, supplierSQL} {
		st, err := conn.PrepareContext(ctx, q)
		if err != nil {
			return fmt.Errorf("prepare %q: %w", q, err)
		}
		defer st.Close()
		prep[q] = st
	}
	read := func(class, q string, want [][]any, args ...any) {
		sp := tr.statement(sess)
		chk := &exactCheck{want: want}
		rows, first, total, err := timedRows(func() (*sql.Rows, error) { return prep[q].QueryContext(ctx, args...) }, chk)
		tr.end(sp)
		tr.fetch(sp, first, total, rows)
		c0 := time.Now()
		if err == nil {
			err = chk.done()
		}
		c.log.checkTime += time.Since(c0)
		c.rep.check(class, err)
		if err == nil {
			c.log.add(class, total, true)
		}
	}
	for n := 1; time.Now().Before(deadline); n++ {
		if c.id == 0 && (n == 1 || c.rng.Intn(refreshEvery) == 0) {
			c.refresh(ctx, conn, sess, refs, tr)
			continue
		}
		switch p := c.rng.Intn(100); {
		case p < 45:
			lo := c.keys.next()
			read(classRange, rangeSQL, refs.rangeAgg(lo, lo+rangeWidth-1), lo, lo+rangeWidth-1)
		case p < 85:
			k := c.keys.next()
			read(classPoint, pointSQL, refs.point(k), k)
		default:
			k := c.supps.next()
			read(classSupplier, supplierSQL, refs.supplier(k), k)
		}
	}
	return nil
}

// refresh replaces the cached rollup and reads it back. The DROP and
// the CTAS together are one write; the read-back is a check, not a
// timed read.
func (c *serveClient) refresh(ctx context.Context, conn *sql.Conn, sess string, refs *serveRefs, tr *tracer) {
	maxKey := int64(500 + c.rng.Intn(4500))
	exec := func(q string) error {
		sp := tr.statement(sess)
		defer tr.end(sp)
		_, err := conn.ExecContext(ctx, q)
		return err
	}
	t0 := time.Now()
	err := exec("DROP TABLE IF EXISTS rollup_mem")
	if err == nil {
		err = exec(refreshSQL(maxKey))
	}
	d := time.Since(t0)
	c.rep.check(classRefresh, err)
	if err != nil {
		return
	}
	c.log.add(classRefresh, d, false)
	sp := tr.statement(sess)
	chk := &exactCheck{want: refs.rollup(maxKey)}
	rows, first, total, err := timedRows(func() (*sql.Rows, error) { return conn.QueryContext(ctx, "SELECT * FROM rollup_mem") }, chk)
	tr.end(sp)
	tr.fetch(sp, first, total, rows)
	if err == nil {
		err = chk.done()
	}
	c.rep.check("rollup_readback", err)
}
