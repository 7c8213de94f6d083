package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"shark/internal/catalog"
	"shark/internal/cluster"
	"shark/internal/columnar"
	"shark/internal/dfs"
	"shark/internal/exec"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// newTieredWorld builds a shared world whose workers have memBytes of
// block-store capacity and an unbounded disk spill tier.
func newTieredWorld(t *testing.T, memBytes int64) *sharedWorld {
	t.Helper()
	cl := cluster.New(cluster.Config{
		Workers: 4, Slots: 2,
		Profile:           cluster.SparkProfile(),
		WorkerMemoryBytes: memBytes,
		WorkerDiskBytes:   -1,
	})
	t.Cleanup(cl.Close)
	svc := shuffle.NewService(cl, shuffle.Memory, t.TempDir())
	fs, err := dfs.New(dfs.Config{Dir: t.TempDir(), BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return &sharedWorld{cl: cl, ctx: rdd.NewContext(cl, svc, rdd.Options{}), fs: fs, cat: catalog.New()}
}

// loadWideTable ingests n rows with a chunky payload column, so cached
// partitions are heavy enough to trigger spills under a small budget.
func loadWideTable(t *testing.T, s *Session, name string, n int) {
	t.Helper()
	schema := row.Schema{
		{Name: "k", Type: row.TInt},
		{Name: "payload", Type: row.TString},
	}
	file := "data/" + s.Tag + "/" + name
	w, err := s.FS.Create(file, dfs.Text, schema)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 64)
	for i := 0; i < n; i++ {
		if err := w.Write(row.Row{int64(i), fmt.Sprintf("%s-%d", pad, i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterExternal(name, file, schema); err != nil {
		t.Fatal(err)
	}
}

// TestStorageLevelSQL: TBLPROPERTIES select the level per table —
// "shark.cache"="MEMORY_AND_DISK" caches a table 4× the cache budget
// that still answers exactly like an uncached scan, served partly
// from the disk tier with no lineage recomputation.
func TestStorageLevelSQL(t *testing.T) {
	const nRows = 3000
	w := newTieredWorld(t, 20<<10)
	s := NewSessionNamed(w.ctx, w.fs, catalog.New(), "lvl", exec.Options{})
	defer s.Close()
	s.DefaultCacheParts = 16
	loadWideTable(t, s, "wide", nRows)

	res, err := s.Exec(`CREATE TABLE wide_mem TBLPROPERTIES ("shark.cache"="MEMORY_AND_DISK") AS SELECT * FROM wide`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "MEMORY_AND_DISK") {
		t.Errorf("CTAS message %q does not name the level", res.Message)
	}
	entry, err := s.Cat.Get("wide_mem")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Mem.Level != rdd.MemoryAndDisk {
		t.Errorf("memtable level = %v, want MEMORY_AND_DISK", entry.Mem.Level)
	}

	want, err := s.Exec("SELECT k, payload FROM wide ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		got, err := s.Exec("SELECT k, payload FROM wide_mem ORDER BY k")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("rep %d: cached result differs from source (%d vs %d rows)",
				rep, len(got.Rows), len(want.Rows))
		}
	}
	m := w.ctx.Scheduler().Metrics()
	if w.cl.DiskTierStats().SpilledBlocks == 0 {
		t.Error("no partitions spilled despite the table exceeding the cache budget")
	}
	if m.DiskHits.Load() == 0 {
		t.Error("no disk hits while scanning a MEMORY_AND_DISK table under pressure")
	}
	if got := m.CacheRecomputes.Load(); got != 0 {
		t.Errorf("%d lineage recomputes despite the disk tier", got)
	}
	stats := s.Stats()
	if stats.DiskHits == 0 {
		t.Error("session stats did not attribute the disk hits")
	}
}

// TestStorageLevelProperty: "shark.storageLevel" overrides the plain
// "shark.cache"="true" default, and the session-wide
// DefaultStorageLevel applies when neither names a level.
func TestStorageLevelProperty(t *testing.T) {
	w := newTieredWorld(t, 1<<20)
	s := NewSessionNamed(w.ctx, w.fs, catalog.New(), "lvl2", exec.Options{})
	defer s.Close()
	s.DefaultStorageLevel = rdd.MemoryAndDisk
	loadWideTable(t, s, "wide", 200)

	if _, err := s.Exec(`CREATE TABLE t1 TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM wide`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`CREATE TABLE t2 TBLPROPERTIES ("shark.cache"="true", "shark.storageLevel"="DISK_ONLY") AS SELECT * FROM wide`); err != nil {
		t.Fatal(err)
	}
	e1, _ := s.Cat.Get("t1")
	e2, _ := s.Cat.Get("t2")
	if e1.Mem.Level != rdd.MemoryAndDisk {
		t.Errorf("t1 level = %v, want the session default MEMORY_AND_DISK", e1.Mem.Level)
	}
	if e2.Mem.Level != rdd.DiskOnly {
		t.Errorf("t2 level = %v, want DISK_ONLY", e2.Mem.Level)
	}
	res, err := s.Exec("SELECT COUNT(*) FROM t2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 200 {
		t.Errorf("DISK_ONLY count = %v, want 200", res.Rows[0][0])
	}
}

// TestSessionCloseDeletesSpilledFiles: closing a session drops its
// tables from every tier — the spilled partitions' files included —
// so a long-lived shared cluster does not leak temp-dir disk.
func TestSessionCloseDeletesSpilledFiles(t *testing.T) {
	w := newTieredWorld(t, 20<<10)
	s := NewSessionNamed(w.ctx, w.fs, catalog.New(), "leaky", exec.Options{})
	s.DefaultCacheParts = 16
	loadWideTable(t, s, "wide", 3000)
	if _, err := s.Exec(`CREATE TABLE wide_mem TBLPROPERTIES ("shark.cache"="MEMORY_AND_DISK") AS SELECT * FROM wide`); err != nil {
		t.Fatal(err)
	}
	var spilled int64
	for i := 0; i < w.cl.NumWorkers(); i++ {
		spilled += w.cl.Worker(i).Store().Disk().ApproxBytes()
	}
	if spilled == 0 {
		t.Fatal("nothing spilled before Close")
	}
	s.Close()
	for i := 0; i < w.cl.NumWorkers(); i++ {
		st := w.cl.Worker(i).Store()
		// The memory tier may still pin shuffle map outputs (the
		// engine's statement shuffles outlive the session — a known
		// ROADMAP item); the session's cached partitions must be gone
		// from both tiers, files included.
		for _, k := range st.Keys() {
			if strings.HasPrefix(k, "rdd/") {
				t.Errorf("worker %d still holds cached block %s after Close", i, k)
			}
		}
		d := st.Disk()
		if b := d.ApproxBytes(); b != 0 {
			t.Errorf("worker %d still accounts %d disk bytes after Close", i, b)
		}
		if ents, err := os.ReadDir(d.Dir()); err == nil && len(ents) != 0 {
			t.Errorf("worker %d leaked %d spill files after Close", i, len(ents))
		}
	}
}

// loadEncodedTable ingests n rows whose columns the memstore encodes
// every way it can: bit-packed, RLE, dictionary and raw BIGINTs, raw
// and RLE DOUBLEs, raw and dictionary STRINGs and a BOOLEAN bitmap,
// with a NULL in about one value in sixteen.
func loadEncodedTable(t *testing.T, s *Session, name string, n int) {
	t.Helper()
	schema := row.Schema{
		{Name: "k", Type: row.TInt},
		{Name: "run", Type: row.TInt},
		{Name: "code", Type: row.TInt},
		{Name: "big", Type: row.TInt},
		{Name: "price", Type: row.TFloat},
		{Name: "step", Type: row.TFloat},
		{Name: "name", Type: row.TString},
		{Name: "flag", Type: row.TString},
		{Name: "ok", Type: row.TBool},
	}
	file := "data/" + s.Tag + "/" + name
	w, err := s.FS.Create(file, dfs.Text, schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		r := row.Row{
			int64(i), int64(i / 32), int64(rng.Intn(37)) * 1_000_003, rng.Int63() - math.MaxInt64/2,
			float64(rng.Intn(2_000_000)-1_000_000) / 8, float64(i/24) / 4,
			fmt.Sprintf("name-%05d", rng.Intn(50_000)), fmt.Sprintf("f%d", rng.Intn(9)),
			rng.Intn(3) == 0,
		}
		for c := 1; c < len(r); c++ {
			if rng.Intn(16) == 0 {
				r[c] = nil
			}
		}
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterExternal(name, file, schema); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryAndDiskEveryEncoding: a MEMORY_AND_DISK table twice the
// size of aggregate worker memory answers exactly like a MEMORY_ONLY
// copy with room to spare, while most of its partitions come back
// from the disk tier in their encoded form.
func TestMemoryAndDiskEveryEncoding(t *testing.T) {
	const nRows = 8000
	queries := []string{
		"SELECT * FROM enc_mem ORDER BY k",
		"SELECT COUNT(*), SUM(run), MIN(price), MAX(name) FROM enc_mem WHERE code = 3000009",
		"SELECT flag, COUNT(*), SUM(step), MIN(big) FROM enc_mem WHERE ok = true AND run >= 10 GROUP BY flag ORDER BY flag",
		"SELECT k, name FROM enc_mem WHERE flag IN ('f1', 'f3') AND price < 0 ORDER BY k",
		"SELECT COUNT(*) FROM enc_mem WHERE name IS NULL OR step IS NULL",
		"SELECT k, step FROM enc_mem WHERE big > 0 AND k BETWEEN 100 AND 900 AND flag <> 'f2' ORDER BY k",
	}
	run := func(w *sharedWorld, level string) (*Session, [][]row.Row) {
		s := NewSessionNamed(w.ctx, w.fs, catalog.New(), "enc", exec.Options{})
		t.Cleanup(s.Close)
		// No DefaultCacheParts: the cached partitions keep the DFS
		// blocks' row order, so the clustered columns stay RLE.
		loadEncodedTable(t, s, "enc", nRows)
		if _, err := s.Exec(`CREATE TABLE enc_mem TBLPROPERTIES ("shark.cache"="` + level + `") AS SELECT * FROM enc`); err != nil {
			t.Fatal(err)
		}
		var out [][]row.Row
		for rep := 0; rep < 2; rep++ {
			for _, q := range queries {
				res, err := s.Exec(q)
				if err != nil {
					t.Fatalf("%s: %s: %v", level, q, err)
				}
				out = append(out, res.Rows)
			}
		}
		return s, out
	}

	roomy := newTieredWorld(t, 1<<30)
	ref, want := run(roomy, "MEMORY_ONLY")
	entry, err := ref.Cat.Get("enc_mem")
	if err != nil {
		t.Fatal(err)
	}
	parts, err := entry.Mem.RDD.Collect()
	if err != nil {
		t.Fatal(err)
	}
	encodings := map[string]bool{}
	for _, v := range parts {
		p := v.(*columnar.Partition)
		for c, col := range p.Cols {
			encodings[p.Schema[c].Name+"/"+col.Encoding()] = true
		}
	}
	for _, want := range []string{"k/bitpack", "run/rle", "code/dict", "big/raw", "price/raw", "step/rle", "name/raw", "flag/dict", "ok/bitmap"} {
		if !encodings[want] {
			t.Errorf("no partition encodes %s (have %v)", want, encodings)
		}
	}

	tight := newTieredWorld(t, entry.Mem.TotalBytes()/(2*4))
	_, got := run(tight, "MEMORY_AND_DISK")
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: MEMORY_AND_DISK returned %d rows that differ from MEMORY_ONLY's %d",
				queries[i%len(queries)], len(got[i]), len(want[i]))
		}
	}
	m := tight.ctx.Scheduler().Metrics()
	if m.DiskHits.Load() == 0 {
		t.Error("no disk hits while scanning a table twice worker memory")
	}
	if n := m.CacheRecomputes.Load(); n != 0 {
		t.Errorf("%d lineage recomputes; spilled partitions should be read back", n)
	}
}
