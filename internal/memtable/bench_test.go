package memtable_test

import (
	"math/rand"
	"runtime"
	"testing"

	"shark/internal/columnar"
	"shark/internal/data"
	"shark/internal/expr"
	"shark/internal/memtable"
	"shark/internal/row"
)

// benchPartition is one lineitem-shaped cached partition: order keys
// in runs of four (RLE), small quantities, raw prices.
func benchPartition(n int) *columnar.Partition {
	rng := rand.New(rand.NewSource(1))
	b := columnar.NewBuilder(row.Schema{
		{Name: "orderkey", Type: row.TInt},
		{Name: "quantity", Type: row.TInt},
		{Name: "price", Type: row.TFloat},
	})
	for i := 0; i < n; i++ {
		if err := b.Append(row.Row{int64(i / 4), int64(1 + rng.Intn(50)), rng.Float64() * 1e5}); err != nil {
			panic(err)
		}
	}
	return b.Seal()
}

// BenchmarkScanFilter measures the cached-scan task body per input
// row: a point lookup (4 rows survive), a range (2000 rows survive)
// and an unfiltered scan, each projecting all three columns.
func BenchmarkScanFilter(b *testing.B) {
	const n = 1 << 16
	p := benchPartition(n)
	key := &expr.Col{Idx: 0, Name: "orderkey", T: row.TInt}
	k := int64(n / 8)
	for _, c := range []struct {
		name    string
		filters []expr.Expr
	}{
		{"point", []expr.Expr{&expr.Cmp{Op: expr.Eq, L: key, R: expr.NewConst(k)}}},
		{"range", []expr.Expr{
			&expr.Cmp{Op: expr.Ge, L: key, R: expr.NewConst(k)},
			&expr.Cmp{Op: expr.Lt, L: key, R: expr.NewConst(k + 500)},
		}},
		{"nofilter", nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			filter := scanFilterOf(c.filters)
			cols := []int{0, 1, 2}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := memtable.ScanPartition(p, cols, filter)
				for {
					if _, ok := it.Next(); !ok {
						break
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			rows := float64(b.N) * n
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/rows, "allocs/row")
		})
	}
}

// BenchmarkSpillCodec measures a cached partition's trip across a disk
// boundary per row: the encoded-form encode (Partition.MarshalShuffle,
// what the spill tier writes) and decode (columnar.DecodePartition,
// what a spilled read runs) of a 16K-row lineitem partition.
func BenchmarkSpillCodec(b *testing.B) {
	const n = 1 << 14
	bld := columnar.NewBuilder(data.LineitemSchema)
	if err := data.Lineitem(n, 100, bld.Append); err != nil {
		b.Fatal(err)
	}
	p := bld.Seal()
	_, encoded := p.MarshalShuffle()
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"encode", func() error { p.MarshalShuffle(); return nil }},
		{"decode", func() error { _, err := columnar.DecodePartition(encoded); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			rows := float64(b.N) * n
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/rows, "B/row")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/rows, "allocs/row")
			b.ReportMetric(float64(len(encoded))/n, "encoded-B/row")
		})
	}
}
