package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"shark"
	"shark/internal/row"
)

// setupRuns is how many times a run sets its environment up; setup_s
// is the median, and only the last environment is measured.
const setupRuns = 5

// tableSpec is one generated table: it is written to the DFS as text
// under name+"_txt" and, when level is set, cached over the wire as
// name+"_mem" at that storage level.
type tableSpec struct {
	name   string
	schema row.Schema
	n      int
	rowAt  func(int) row.Row
	level  string
}

// setupResult is the measured environment plus what its set-ups took.
type setupResult struct {
	env *env
	// setupS holds each set-up's wall time: server boot, DFS writes
	// and the caching CTAS statements.
	setupS []float64
	// loadRowsPerS holds, per set-up, the rows per second of the CTAS
	// that cached the first table.
	loadRowsPerS []float64
	notes        []string
}

// setUp boots setupRuns environments in turn, closing all but the
// last.
func setUp(ctx context.Context, cfg *runConfig, cc shark.ClusterConfig, tables []tableSpec) (*setupResult, error) {
	res := &setupResult{}
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		e, err := newEnv(filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", i)), cc)
		if err != nil {
			return nil, err
		}
		loadRate := 0.0
		for ti, t := range tables {
			if err := e.loadText(t.name+"_txt", t.schema, t.n, t.rowAt); err != nil {
				e.close()
				return nil, fmt.Errorf("load %s: %w", t.name, err)
			}
			if t.level == "" {
				continue
			}
			c0 := time.Now()
			if err := e.cacheTable(ctx, t.name+"_mem", t.name+"_txt", t.level); err != nil {
				e.close()
				return nil, fmt.Errorf("cache %s: %w", t.name, err)
			}
			if ti == 0 {
				loadRate = float64(t.n) / time.Since(c0).Seconds()
			}
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		note := fmt.Sprintf("set-up %d: %.3f s", i, res.setupS[i])
		if loadRate > 0 {
			note += fmt.Sprintf(", caching CTAS of %s %.0f rows/s", tables[0].name, loadRate)
		}
		note += fmt.Sprintf(", blocks per worker %v", e.blocksPerWorker())
		res.notes = append(res.notes, note)
		res.loadRowsPerS = append(res.loadRowsPerS, loadRate)
		if i < setupRuns-1 {
			e.close()
			continue
		}
		res.env = e
	}
	return res, nil
}

// addCommon reports the end-to-end metrics every workload has: set-up
// time, heap high-water, the geometric mean of per-class median
// latency and stored bytes per input byte. It prints, ungated, the
// workload's read throughput and median read latency, its process CPU
// time per statement (user plus system time of server, cluster and
// client over the statements of classes) and the rate of the loads
// that cached its main table: on olap_cached they spread too much to
// gate on. wall is the measured phase without client-side result
// checking; loadRates are the rows per second of the CTAS statements
// that cached the main table, and storedRatio is its stored bytes per
// text input byte.
func addCommon(rep *report, su *setupResult, log *stmtLog, cpu time.Duration, classes []string, heapPeak float64, wall time.Duration, loadRates []float64, storedRatio float64) {
	for _, n := range su.notes {
		rep.notef("%s", n)
	}
	rep.endToEnd("setup_s", "s", median(su.setupS), len(su.setupS))
	rep.endToEnd("heap_peak_mb", "MB", heapPeak, 0)
	rep.endToEnd("query_geomean_ms", "ms", log.classGeomean(classes), len(classes))
	rep.workload("read_p50_ms", "ms", median(msAll(log.reads)), len(log.reads))
	rep.workload("read_qps", "1/s", float64(len(log.reads))/wall.Seconds(), len(log.reads))
	var stmts int
	for _, c := range classes {
		stmts += len(log.byClass[c])
	}
	rep.workload("cpu_ms_per_stmt", "ms", ms(cpu)/float64(stmts), stmts)
	rep.workload("load_rows_per_s", "1/s", median(loadRates), len(loadRates))
	rep.endToEnd("stored_bytes_per_input_byte", "ratio", storedRatio, 0)
}

// storedRatio is the cached table name+"_mem"'s stored bytes per byte
// of its text input name+"_txt".
func (e *env) storedRatio(name string) (float64, error) {
	stored, err := e.cachedBytes(name + "_mem")
	return float64(stored) / float64(e.textBytes[name+"_txt"]), err
}
