package memtable

import (
	"context"
	"reflect"
	"testing"

	"shark/internal/cluster"
	"shark/internal/rdd"
	"shark/internal/shuffle"
)

// newBoundedCtx builds a context over a 4-worker cluster with
// memBytes of block-store capacity per worker.
func newBoundedCtx(t *testing.T, memBytes int64) *rdd.Context {
	t.Helper()
	c := cluster.New(cluster.Config{Workers: 4, Slots: 2, WorkerMemoryBytes: memBytes})
	t.Cleanup(c.Close)
	return rdd.NewContext(c, shuffle.NewService(c, shuffle.Memory, t.TempDir()), rdd.Options{})
}

// newTieredCtx adds an unbounded disk spill tier to newBoundedCtx.
func newTieredCtx(t *testing.T, memBytes int64) *rdd.Context {
	t.Helper()
	c := cluster.New(cluster.Config{
		Workers: 4, Slots: 2,
		WorkerMemoryBytes: memBytes,
		WorkerDiskBytes:   -1,
	})
	t.Cleanup(c.Close)
	return rdd.NewContext(c, shuffle.NewService(c, shuffle.Memory, t.TempDir()), rdd.Options{})
}

// TestPartialCachingMatchesUnbounded: a table ~2× the aggregate worker
// memory still loads and answers Scan and Prune queries identically to
// the unbounded run — cold partitions come back via remote cache reads
// or lineage recomputation, visibly in the metrics, and no worker ever
// holds more than its capacity.
func TestPartialCachingMatchesUnbounded(t *testing.T) {
	const nRows, nParts = 4000, 16
	preds := []ColPredicate{{Col: 2, Lo: int64(1000), Hi: int64(2999)}}

	// Reference: unbounded.
	refCtx := newCtx(t)
	refTbl, err := Load("sessions", schema, refCtx.Parallelize(clusteredRows(nRows), nParts))
	if err != nil {
		t.Fatal(err)
	}
	wantScan, err := refTbl.Scan(nil, nil, nil).Collect()
	if err != nil {
		t.Fatal(err)
	}
	refPruned := refTbl.Prune(preds)
	wantPruned, err := refTbl.Scan(refPruned, []int{0, 2}, nil).Collect()
	if err != nil {
		t.Fatal(err)
	}

	// Bounded: aggregate memory = half the table's footprint.
	capBytes := refTbl.TotalBytes() / (2 * 4)
	ctx := newBoundedCtx(t, capBytes)
	tbl, err := Load("sessions", schema, ctx.Parallelize(clusteredRows(nRows), nParts))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.TotalRows() != int64(nRows) {
		t.Fatalf("bounded load reported %d rows, want %d", tbl.TotalRows(), nRows)
	}

	gotScan, err := tbl.Scan(nil, nil, nil).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotScan, wantScan) {
		t.Errorf("bounded full scan differs from unbounded (%d vs %d rows)", len(gotScan), len(wantScan))
	}
	pruned := tbl.Prune(preds)
	if !reflect.DeepEqual(pruned, refPruned) {
		t.Errorf("pruned partitions differ: %v vs %v", pruned, refPruned)
	}
	gotPruned, err := tbl.Scan(pruned, []int{0, 2}, nil).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPruned, wantPruned) {
		t.Errorf("bounded pruned scan differs from unbounded (%d vs %d rows)", len(gotPruned), len(wantPruned))
	}

	m := ctx.Scheduler().Metrics()
	if m.CacheRecomputes.Load()+m.RemoteCacheHits.Load() == 0 {
		t.Error("no recomputes or remote cache reads despite memory pressure")
	}
	if ctx.Cluster.Metrics().CacheEvictions.Load() == 0 {
		t.Error("no evictions despite the table exceeding aggregate memory")
	}
	for i := 0; i < ctx.Cluster.NumWorkers(); i++ {
		if b := ctx.Cluster.Worker(i).Store().ApproxBytes(); b > capBytes {
			t.Errorf("worker %d holds %d bytes over the %d cap", i, b, capBytes)
		}
	}
}

// TestMemoryAndDiskMatchesUnbounded: the end-to-end storage-level
// check — a MEMORY_AND_DISK table whose footprint is ~2× aggregate
// worker memory answers Scan and Prune queries identically to the
// unbounded run, with cold partitions read back from the disk tier
// (DiskHits > 0) and essentially no lineage recomputation.
func TestMemoryAndDiskMatchesUnbounded(t *testing.T) {
	const nRows, nParts = 4000, 16
	preds := []ColPredicate{{Col: 2, Lo: int64(1000), Hi: int64(2999)}}

	// Reference: unbounded, memory-only.
	refCtx := newCtx(t)
	refTbl, err := Load("sessions", schema, refCtx.Parallelize(clusteredRows(nRows), nParts))
	if err != nil {
		t.Fatal(err)
	}
	wantScan, err := refTbl.Scan(nil, nil, nil).Collect()
	if err != nil {
		t.Fatal(err)
	}
	refPruned := refTbl.Prune(preds)
	wantPruned, err := refTbl.Scan(refPruned, []int{0, 2}, nil).Collect()
	if err != nil {
		t.Fatal(err)
	}

	// Tiered: aggregate memory = half the footprint, unbounded disk.
	capBytes := refTbl.TotalBytes() / (2 * 4)
	ctx := newTieredCtx(t, capBytes)
	tbl, err := LoadWith(context.Background(), "sessions", schema,
		ctx.Parallelize(clusteredRows(nRows), nParts), LoadOptions{Level: rdd.MemoryAndDisk})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Level != rdd.MemoryAndDisk {
		t.Errorf("table level = %v, want MEMORY_AND_DISK", tbl.Level)
	}

	for rep := 0; rep < 2; rep++ {
		gotScan, err := tbl.Scan(nil, nil, nil).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotScan, wantScan) {
			t.Fatalf("rep %d: tiered full scan differs from unbounded (%d vs %d rows)",
				rep, len(gotScan), len(wantScan))
		}
		gotPruned, err := tbl.Scan(tbl.Prune(preds), []int{0, 2}, nil).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotPruned, wantPruned) {
			t.Fatalf("rep %d: tiered pruned scan differs from unbounded", rep)
		}
	}

	m := ctx.Scheduler().Metrics()
	if m.DiskHits.Load() == 0 {
		t.Error("no disk hits despite the table exceeding aggregate memory")
	}
	if got := m.CacheRecomputes.Load(); got != 0 {
		t.Errorf("%d lineage recomputes; spilled partitions should be read back instead", got)
	}
	if ctx.Cluster.Metrics().SpilledBlocks.Load() == 0 {
		t.Error("no spills recorded")
	}
	for i := 0; i < ctx.Cluster.NumWorkers(); i++ {
		if b := ctx.Cluster.Worker(i).Store().ApproxBytes(); b > capBytes {
			t.Errorf("worker %d holds %d bytes over the %d cap", i, b, capBytes)
		}
	}
}

// TestDropReleasesSpilledPartitions: Drop on a MEMORY_AND_DISK table
// frees the disk tier too.
func TestDropReleasesSpilledPartitions(t *testing.T) {
	ctx := newTieredCtx(t, 2000)
	tbl, err := LoadWith(context.Background(), "sessions", schema,
		ctx.Parallelize(clusteredRows(1000), 8), LoadOptions{Level: rdd.MemoryAndDisk})
	if err != nil {
		t.Fatal(err)
	}
	var spilled int64
	for i := 0; i < ctx.Cluster.NumWorkers(); i++ {
		spilled += ctx.Cluster.Worker(i).Store().Disk().ApproxBytes()
	}
	if spilled == 0 {
		t.Fatal("nothing spilled before Drop")
	}
	tbl.Drop()
	for i := 0; i < ctx.Cluster.NumWorkers(); i++ {
		st := ctx.Cluster.Worker(i).Store()
		if b := st.ApproxBytes() + st.Disk().ApproxBytes(); b != 0 {
			t.Errorf("worker %d still accounts %d bytes after Drop", i, b)
		}
	}
}

// TestDropUnderPressureReleasesMemory: Drop still evicts every cached
// partition when stores are bounded (Delete keeps the accounting
// honest, so the bytes actually come back).
func TestDropUnderPressureReleasesMemory(t *testing.T) {
	ctx := newBoundedCtx(t, 1<<20)
	tbl, err := Load("sessions", schema, ctx.Parallelize(clusteredRows(1000), 8))
	if err != nil {
		t.Fatal(err)
	}
	var before int64
	for i := 0; i < ctx.Cluster.NumWorkers(); i++ {
		before += ctx.Cluster.Worker(i).Store().ApproxBytes()
	}
	if before == 0 {
		t.Fatal("nothing cached before Drop")
	}
	tbl.Drop()
	for i := 0; i < ctx.Cluster.NumWorkers(); i++ {
		if b := ctx.Cluster.Worker(i).Store().ApproxBytes(); b != 0 {
			t.Errorf("worker %d still accounts %d bytes after Drop", i, b)
		}
	}
}
