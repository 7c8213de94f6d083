package main

import (
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"time"

	"shark"
	"shark/internal/columnar"
)

// Sizes of ingest_spill.
const (
	ingestRows      = 400_000
	ingestSuppliers = 10_000
	// calibrationChunk is the rows per partition used to size the
	// table's columnar form before the cluster boots.
	calibrationChunk = 16_384
)

const (
	classLoad   = "load_ctas"
	classRescan = "rescan"
)

var ingestClasses = []string{classLoad, classRescan}

const (
	dropSQL   = "DROP TABLE IF EXISTS lineitem_mem"
	loadSQL   = `CREATE TABLE lineitem_mem TBLPROPERTIES ("shark.cache"="MEMORY_AND_DISK") AS SELECT * FROM lineitem_txt`
	rescanSQL = "SELECT L_RETURNFLAG, COUNT(*), SUM(L_QUANTITY), SUM(L_EXTENDEDPRICE) FROM lineitem_mem " +
		"WHERE L_RECEIPTDATE >= %s GROUP BY L_RETURNFLAG"
)

// columnarBytes is the size of l in the memstore's columnar form, built
// in partitions of calibrationChunk rows.
func columnarBytes(l *lineitem) (int64, error) {
	var total int64
	for lo := 0; lo < l.n; lo += calibrationChunk {
		b := columnar.NewBuilder(lineitemSchema)
		for i := lo; i < l.n && i < lo+calibrationChunk; i++ {
			if err := b.Append(l.row(i)); err != nil {
				return 0, err
			}
		}
		total += b.Seal().SizeBytes()
	}
	return total, nil
}

func newIngest(ctx context.Context, cfg *runConfig) (*bench, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	l := genLineitem(rng.Int63(), ingestRows, ingestSuppliers)
	s := genSupplier(rng.Int63(), ingestSuppliers)
	probeSeed := rng.Int63()
	colBytes, err := columnarBytes(l)
	if err != nil {
		return nil, err
	}
	// Half the table fits in the four workers' memory; the rest of a
	// MEMORY_AND_DISK load spills to the unbounded disk tier.
	cc := shark.ClusterConfig{WorkerMemoryBytes: colBytes / 2 / benchWorkers, WorkerDiskBytes: -1}

	// The rescan reads every partition; its seeded date bound keeps
	// 98-99% of the rows, so every seed asks for the same work.
	from := dateBase + int64(25+rng.Intn(25))
	type agg struct {
		n, qty int64
		price  float64
	}
	groups := map[uint8]*agg{}
	for i := 0; i < l.n; i++ {
		if l.date[i] < from {
			continue
		}
		a := groups[l.flag[i]]
		if a == nil {
			a = &agg{}
			groups[l.flag[i]] = a
		}
		a.n++
		a.qty += l.qty[i]
		a.price += l.price[i]
	}
	var want [][]any
	for f, a := range groups {
		want = append(want, []any{returnFlags[f], a.n, a.qty, a.price})
	}
	rescan := fmt.Sprintf(rescanSQL, dateLit(from))

	// supplier_mem is there for the traced run's join probe.
	su, err := setUp(ctx, cfg, cc, []tableSpec{
		{name: "lineitem", schema: lineitemSchema, n: l.n, rowAt: l.row},
		{name: "supplier", schema: supplierSchema, n: ingestSuppliers, rowAt: s.row, level: "true"},
	})
	if err != nil {
		return nil, err
	}
	e := su.env
	b := &bench{env: e, l: l,
		olap: func() []benchQuery { return olapQueries(l, s, rand.New(rand.NewSource(probeSeed))) },
		own: []probeStmt{
			{class: classRescan, sql: rescan, check: expect(want, false)},
			{class: classLoad, sql: loadSQL},
			{class: "drop", sql: dropSQL},
		}}
	b.measure = func(ctx context.Context, d time.Duration, tr *tracer, rep *report) error {
		conn, sess, err := pinConn(ctx, e.db)
		if err != nil {
			return err
		}
		defer conn.Close()
		log := newStmtLog()
		var loadRates, ratios []float64
		heap := startHeapSampler()
		start := time.Now()
		// Closed loop on one connection: DROP, load with spill, full
		// rescan.
		for cycle := 0; cycle == 0 || time.Since(start) < d; cycle++ {
			sp := tr.statement(sess)
			_, err := conn.ExecContext(ctx, dropSQL)
			tr.end(sp)
			rep.check("drop", err)

			sp = tr.statement(sess)
			t0 := time.Now()
			_, err = conn.ExecContext(ctx, loadSQL)
			took := time.Since(t0)
			tr.end(sp)
			rep.check(classLoad, err)
			if err != nil {
				continue
			}
			log.add(classLoad, took, false)
			loadRates = append(loadRates, float64(l.n)/took.Seconds())
			ratio, err := e.storedRatio("lineitem")
			rep.check("stat lineitem_mem", err)
			ratios = append(ratios, ratio)

			sp = tr.statement(sess)
			chk := &exactCheck{want: want}
			rows, first, total, err := timedRows(func() (*sql.Rows, error) { return conn.QueryContext(ctx, rescan) }, chk)
			tr.end(sp)
			tr.fetch(sp, first, total, rows)
			c0 := time.Now()
			if err == nil {
				err = chk.done()
			}
			log.checkTime += time.Since(c0)
			rep.check(classRescan, err)
			if err == nil {
				log.add(classRescan, total, true)
			}
		}
		wall := time.Since(start) - log.checkTime
		heapPeak, cpu := heap.stop()

		rep.notef("lineitem_txt %d rows (%d text bytes, %d columnar bytes); worker memory %d bytes x %d workers, unbounded disk tier",
			l.n, e.textBytes["lineitem_txt"], colBytes, cc.WorkerMemoryBytes, benchWorkers)
		for _, c := range ingestClasses {
			rep.notef("%s", log.classLine(c))
		}
		addCommon(rep, su, log, cpu, ingestClasses, heapPeak, wall, loadRates, median(ratios))
		rep.workload("rescan_ms", "ms", median(msAll(log.byClass[classRescan])), len(log.byClass[classRescan]))
		rep.workload("write_p50_ms", "ms", median(msAll(log.byClass[classLoad])), len(log.byClass[classLoad]))
		return nil
	}
	return b, nil
}
