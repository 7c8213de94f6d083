package memtable_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shark/internal/columnar"
	"shark/internal/expr"
	"shark/internal/memtable"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
)

// scanCol is one column of the differential-test partition: its type,
// the encoding its generator is shaped to get at batch size, and the
// generator of row i's value.
type scanCol struct {
	name string
	typ  row.Type
	enc  string
	gen  func(rng *rand.Rand, i int) any
}

var scanCols = []scanCol{
	{"int_raw", row.TInt, "raw", func(rng *rand.Rand, _ int) any { return rng.Int63() - math.MaxInt64/2 }},
	{"int_rle", row.TInt, "rle", func(_ *rand.Rand, i int) any { return int64(i / 32) }},
	{"int_bitpack", row.TInt, "bitpack", func(rng *rand.Rand, _ int) any { return int64(-500 + rng.Intn(1000)) }},
	{"int_dict", row.TInt, "dict", func(rng *rand.Rand, _ int) any { return int64(rng.Intn(40)) * 1_000_003 }},
	{"date_raw", row.TDate, "raw", func(rng *rand.Rand, _ int) any { return rng.Int63() }},
	{"date_rle", row.TDate, "rle", func(_ *rand.Rand, i int) any { return int64(9000 + i/20) }},
	{"date_bitpack", row.TDate, "bitpack", func(rng *rand.Rand, _ int) any { return int64(9000 + rng.Intn(2000)) }},
	{"date_dict", row.TDate, "dict", func(rng *rand.Rand, _ int) any { return int64(9000 + 7*rng.Intn(30)) }},
	{"float_raw", row.TFloat, "raw", func(rng *rand.Rand, _ int) any {
		switch rng.Intn(20) {
		case 0:
			return math.NaN()
		case 1:
			return float64(rng.Intn(10)) // integral: IN folds these to int keys
		}
		return rng.NormFloat64() * 100
	}},
	{"float_rle", row.TFloat, "rle", func(_ *rand.Rand, i int) any {
		if i/24%7 == 3 {
			return math.NaN()
		}
		return float64(i/24) / 4
	}},
	{"string_raw", row.TString, "raw", func(rng *rand.Rand, i int) any { return fmt.Sprintf("s%05d-%d", rng.Intn(5000), i%3) }},
	{"string_dict", row.TString, "dict", func(rng *rand.Rand, _ int) any { return fmt.Sprintf("c%d", rng.Intn(12)) }},
	{"bool", row.TBool, "bitmap", func(rng *rand.Rand, _ int) any { return rng.Intn(3) == 0 }},
}

// buildScanPartition seals n generated rows; with nulls, about one
// value in sixteen is NULL (sparse enough to keep the RLE columns RLE).
func buildScanPartition(t *testing.T, rng *rand.Rand, n int, nulls bool) (*columnar.Partition, []row.Row) {
	t.Helper()
	schema := make(row.Schema, len(scanCols))
	for c, sc := range scanCols {
		schema[c] = row.Field{Name: sc.name, Type: sc.typ}
	}
	b := columnar.NewBuilder(schema)
	rows := make([]row.Row, n)
	for i := range rows {
		r := make(row.Row, len(scanCols))
		for c, sc := range scanCols {
			if !nulls || rng.Intn(16) != 0 {
				r[c] = sc.gen(rng, i)
			}
		}
		rows[i] = r
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return b.Seal(), rows
}

// conjGen draws random conjuncts over a partition projected by cols.
type conjGen struct {
	rng  *rand.Rand
	rows []row.Row
	cols []int
}

func (g *conjGen) col() (*expr.Col, int) {
	return g.colAt(g.rng.Intn(len(g.cols)))
}

func (g *conjGen) colAt(pos int) (*expr.Col, int) {
	sc := scanCols[g.cols[pos]]
	return &expr.Col{Idx: pos, Name: sc.name, T: sc.typ}, g.cols[pos]
}

// colOf draws a projected column of type t, if there is one.
func (g *conjGen) colOf(t row.Type) (*expr.Col, int, bool) {
	for _, pos := range g.rng.Perm(len(g.cols)) {
		if col, c := g.colAt(pos); col.T == t {
			return col, c, true
		}
	}
	return nil, 0, false
}

// value draws a constant for column c: mostly one present in the
// data, sometimes an edge or off-data value of the same class.
func (g *conjGen) value(c int) any {
	if len(g.rows) > 0 && g.rng.Intn(3) != 0 {
		if v := g.rows[g.rng.Intn(len(g.rows))][c]; v != nil {
			return v
		}
	}
	switch scanCols[c].typ {
	case row.TInt, row.TDate:
		return []int64{math.MinInt64, math.MaxInt64, 0, -501, 499, 9000, 40_000_120}[g.rng.Intn(7)]
	case row.TFloat:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 2.5, -1e9}[g.rng.Intn(6)]
	case row.TString:
		return []string{"", "c3", "s02500", "zz"}[g.rng.Intn(4)]
	}
	return g.rng.Intn(2) == 0
}

var cmpOps = []expr.CmpOp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}

// supported draws a conjunct of a form that has a column kernel.
func (g *conjGen) supported() expr.Expr {
	col, c := g.col()
	switch g.rng.Intn(6) {
	case 0:
		vals := make([]any, 1+g.rng.Intn(4))
		for i := range vals {
			vals[i] = g.value(c)
		}
		if g.rng.Intn(4) == 0 {
			vals = append(vals, 2.5, 3.0) // float keys: 3.0 folds to an int key
		}
		return &expr.In{E: col, Set: expr.NewInSet(vals), Invert: g.rng.Intn(3) == 0}
	case 1:
		return &expr.IsNull{E: col, Invert: g.rng.Intn(2) == 0}
	}
	var k any = g.value(c)
	if col.T == row.TFloat && g.rng.Intn(4) == 0 {
		k = int64(g.rng.Intn(10)) // float column against an int constant
	}
	op := cmpOps[g.rng.Intn(len(cmpOps))]
	if g.rng.Intn(2) == 0 {
		return &expr.Cmp{Op: op, L: expr.NewConst(k), R: col}
	}
	return &expr.Cmp{Op: op, L: col, R: expr.NewConst(k)}
}

// residual draws a conjunct the scan must evaluate per row.
func (g *conjGen) residual() expr.Expr {
	switch g.rng.Intn(5) {
	case 0:
		if col, _, ok := g.colOf(row.TString); ok {
			return expr.NewLike(col, []string{"c1%", "%5-1", "s0%"}[g.rng.Intn(3)], g.rng.Intn(2) == 0)
		}
	case 1:
		if col, c, ok := g.colOf(row.TInt); ok {
			minus1 := &expr.Arith{Op: expr.Sub, L: col, R: expr.NewConst(int64(1)), T: row.TInt}
			return &expr.Cmp{Op: expr.Lt, L: minus1, R: expr.NewConst(g.value(c))}
		}
	case 2:
		if col, _, ok := g.colOf(row.TInt); ok { // int column against a float constant
			k := float64(g.rng.Intn(1000)) + 0.5
			return &expr.Cmp{Op: cmpOps[g.rng.Intn(len(cmpOps))], L: col, R: expr.NewConst(k)}
		}
	case 3:
		col, _ := g.col()
		return &expr.Cmp{Op: expr.Eq, L: col, R: expr.NewConst(nil)}
	}
	if g.rng.Intn(2) == 0 {
		return &expr.Not{E: g.supported()}
	}
	return &expr.Or{L: g.supported(), R: g.supported()}
}

// conjunction draws an AND-chain of one to four conjuncts, mostly of
// supported forms.
func (g *conjGen) conjunction() expr.Expr {
	var out expr.Expr
	for n := 1 + g.rng.Intn(4); n > 0; n-- {
		var c expr.Expr
		if g.rng.Intn(4) == 0 {
			c = g.residual()
		} else {
			c = g.supported()
		}
		if out == nil {
			out = c
		} else {
			out = &expr.And{L: out, R: c}
		}
	}
	return out
}

// scanFilterOf builds the filter the engine builds for a cached scan.
func scanFilterOf(filters []expr.Expr) *memtable.ScanFilter {
	preds, residual := plan.SplitScanFilters(filters)
	f := &memtable.ScanFilter{Preds: preds}
	if len(residual) > 0 {
		fn := residual[0]
		for _, x := range residual[1:] {
			fn = &expr.And{L: fn, R: x}
		}
		eval := fn.Compile()
		f.Residual = func(r row.Row) bool { return row.Truth(eval(r)) }
	}
	return f
}

// identical is value identity: same class, same bits (NaN included).
func identical(a, b any) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

// TestScanMatchesCompiledFilter is the differential test of the batch
// scan: for every column type and encoding, with and without NULLs, at
// partition sizes around the batch size, ScanPartition must return
// exactly the rows and values that the compiled conjunction keeps when
// run over Partition.Row — on the partition as built and on its copy
// decoded from the encoded disk form.
func TestScanMatchesCompiledFilter(t *testing.T) {
	covered := map[string]bool{}
	kernels := 0
	for _, n := range []int{0, 1, columnar.BatchSize, columnar.BatchSize + 1} {
		for _, nulls := range []bool{false, true} {
			seed := int64(2 * n)
			if nulls {
				seed++
			}
			rng := rand.New(rand.NewSource(seed))
			p, rows := buildScanPartition(t, rng, n, nulls)
			// The same partition after a trip across a disk boundary in
			// its encoded form must scan identically.
			_, data := p.MarshalShuffle()
			spilled, err := columnar.DecodePartition(data)
			if err != nil {
				t.Fatal(err)
			}
			for c, col := range p.Cols {
				covered[fmt.Sprintf("%s/%s/nulls=%v", scanCols[c].typ, col.Encoding(), p.Stats[c].NullCount > 0)] = true
			}
			for trial := 0; trial < 150; trial++ {
				cols := rng.Perm(len(scanCols))[:1+rng.Intn(len(scanCols))]
				g := &conjGen{rng: rng, rows: rows, cols: cols}
				cond := g.conjunction()
				filter := scanFilterOf([]expr.Expr{cond})
				for _, pr := range filter.Preds {
					if pr.Kernel != nil {
						kernels++
					}
				}
				eval := cond.Compile()
				var want []row.Row
				for i := 0; i < p.N; i++ {
					full := p.Row(i)
					r := make(row.Row, len(cols))
					for j, c := range cols {
						r[j] = full[c]
					}
					if row.Truth(eval(r)) {
						want = append(want, r)
					}
				}
				for _, part := range []*columnar.Partition{p, spilled} {
					got := rdd.Drain(memtable.ScanPartition(part, cols, filter))
					if len(got) != len(want) {
						t.Fatalf("n=%d nulls=%v spilled=%v %s: %d rows, want %d", n, nulls, part == spilled, cond, len(got), len(want))
					}
					for i := range want {
						gr := got[i].(row.Row)
						for j := range want[i] {
							if !identical(gr[j], want[i][j]) {
								t.Fatalf("n=%d nulls=%v spilled=%v %s: row %d col %d = %v, want %v", n, nulls, part == spilled, cond, i, j, gr[j], want[i][j])
							}
						}
					}
				}
			}
		}
	}
	if kernels == 0 {
		t.Fatal("no conjunct reached a column kernel")
	}
	for _, sc := range scanCols {
		for _, nulls := range []bool{false, true} {
			if k := fmt.Sprintf("%s/%s/nulls=%v", sc.typ, sc.enc, nulls); !covered[k] {
				t.Errorf("encoding %s not covered", k)
			}
		}
	}
}
