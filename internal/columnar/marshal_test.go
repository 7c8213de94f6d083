package columnar

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"shark/internal/row"
)

func TestPartitionMarshalRoundTrip(t *testing.T) {
	schema := row.Schema{
		{Name: "id", Type: row.TInt},
		{Name: "name", Type: row.TString},
		{Name: "score", Type: row.TFloat},
		{Name: "ok", Type: row.TBool},
		{Name: "day", Type: row.TDate},
	}
	b := NewBuilder(schema)
	rows := []row.Row{
		{int64(1), "alpha", 1.5, true, int64(100)},
		{int64(2), "beta", -2.25, false, int64(200)},
		{nil, "alpha", nil, true, nil},
		{int64(4), "", 0.0, false, int64(100)},
	}
	for _, r := range rows {
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	p := b.Seal()
	tag, data := p.MarshalShuffle()
	if tag != PartitionTag {
		t.Fatalf("tag = %q", tag)
	}
	q, err := DecodePartition(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.N != p.N || !reflect.DeepEqual(q.Schema, p.Schema) {
		t.Fatalf("shape differs: N=%d/%d", q.N, p.N)
	}
	for i := 0; i < p.N; i++ {
		if !reflect.DeepEqual(q.Row(i), p.Row(i)) {
			t.Errorf("row %d: got %v want %v", i, q.Row(i), p.Row(i))
		}
	}
}

// TestDecodePartitionRejectsGarbage: malformed bytes are an error,
// never a panic or an allocation sized by a corrupt count.
func TestDecodePartitionRejectsGarbage(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	// header: one BIGINT column "c", then N and the column.
	header := func(n uint64) []byte {
		return append(append(uv(1, 1), 'c', byte(row.TInt)), uv(n)...)
	}
	noStats := []byte{0, 0, 0, 0}
	cases := map[string][]byte{
		"empty":          nil,
		"count only":     uv(3),
		"not a count":    []byte("not-a-count"),
		"hostile ncols":  uv(1 << 40),
		"no row count":   append(uv(1, 1), 'c', byte(row.TInt)),
		"huge row count": header(1 << 40),
		// two rows declared, one value present
		"wrong value count": append(append(header(2), encRawInt, 0), make([]byte, 8)...),
		"bad encoding":      append(header(0), 99, 0),
		"float enc for int": append(header(0), encRawFloat, 0),
		"bad null flag":     append(header(0), encRawInt, 7),
		"hostile runs":      append(append(header(4), encRLEInt, 0), uv(1<<40)...),
		// Each case below is well formed but for one field.
		"run ends descend": append(append(append(append(append(header(4), encRLEInt, 0), uv(3)...),
			make([]byte, 24)...), 3, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0), noStats...),
		"runs short of N": append(append(append(append(append(header(4), encRLEInt, 0), uv(1)...),
			make([]byte, 8)...), 3, 0, 0, 0), noStats...),
		"zero width": append(append(append(header(4), encPackedInt, 0), make([]byte, 9)...), noStats...),
		"wide width": append(append(append(append(header(4), encPackedInt, 0), make([]byte, 8)...), 64),
			append(make([]byte, 32), noStats...)...),
		"code too big": append(append(append(append(append(header(4), encDictInt, 0), uv(1)...), make([]byte, 8)...),
			2, 0xff, 0, 0, 0, 0, 0, 0, 0), noStats...),
		"hostile dict": append(append(header(4), encDictInt, 0), uv(1<<40)...),
		"trailing":     append(append(append(header(0), encRawInt, 0), noStats...), 0),
		"nulls over N": append(append(append(header(0), encRawInt, 0), 0, 0), uv(5, 0)...),
	}
	if _, err := DecodePartition(append(append(header(0), encRawInt, 0), noStats...)); err != nil {
		t.Fatalf("the well-formed base case fails: %v", err)
	}
	for name, data := range cases {
		if p, err := DecodePartition(data); err == nil {
			t.Errorf("%s: decoded %d rows from malformed bytes", name, p.N)
		}
	}
	// Every strict prefix of a real partition is truncated.
	p, _ := genPartition(rand.New(rand.NewSource(1)), 300, true)
	_, data := p.MarshalShuffle()
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodePartition(data[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", cut, len(data))
		}
	}
}

// genCol is a column generator shaped to get one encoding.
type genCol struct {
	typ row.Type
	enc string
	gen func(rng *rand.Rand, i int) any
}

var genCols = []genCol{
	{row.TInt, "raw", func(rng *rand.Rand, _ int) any { return rng.Int63() - math.MaxInt64/2 }},
	{row.TInt, "rle", func(_ *rand.Rand, i int) any { return int64(i / 32) }},
	{row.TInt, "bitpack", func(rng *rand.Rand, _ int) any { return int64(-500 + rng.Intn(1000)) }},
	{row.TInt, "dict", func(rng *rand.Rand, _ int) any { return int64(rng.Intn(40)) * 1_000_003 }},
	{row.TDate, "rle", func(_ *rand.Rand, i int) any { return int64(9000 + i/20) }},
	{row.TFloat, "raw", func(rng *rand.Rand, _ int) any {
		if rng.Intn(20) == 0 {
			return math.NaN()
		}
		return rng.NormFloat64() * 100
	}},
	{row.TFloat, "rle", func(_ *rand.Rand, i int) any { return float64(i/24) / 4 }},
	{row.TString, "raw", func(rng *rand.Rand, i int) any { return fmt.Sprintf("s%05d-%d", rng.Intn(5000), i%3) }},
	{row.TString, "dict", func(rng *rand.Rand, _ int) any { return fmt.Sprintf("c%d", rng.Intn(12)) }},
	{row.TBool, "bitmap", func(rng *rand.Rand, _ int) any { return rng.Intn(3) == 0 }},
}

// genPartition seals n generated rows over genCols; with nulls, about
// one value in sixteen is NULL.
func genPartition(rng *rand.Rand, n int, nulls bool) (*Partition, []row.Row) {
	schema := make(row.Schema, len(genCols))
	for c, g := range genCols {
		schema[c] = row.Field{Name: fmt.Sprintf("%v_%s", g.typ, g.enc), Type: g.typ}
	}
	b := NewBuilder(schema)
	rows := make([]row.Row, n)
	for i := range rows {
		r := make(row.Row, len(genCols))
		for c, g := range genCols {
			if !nulls || rng.Intn(16) != 0 {
				r[c] = g.gen(rng, i)
			}
		}
		rows[i] = r
		if err := b.Append(r); err != nil {
			panic(err)
		}
	}
	return b.Seal(), rows
}

// sameValue is value identity: same class, same bits (NaN included).
func sameValue(a, b any) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

func sameValues(a, b []any) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameStats(a, b ColumnStats) bool {
	return sameValue(a.Min, b.Min) && sameValue(a.Max, b.Max) &&
		a.NullCount == b.NullCount && sameValues(a.Distinct, b.Distinct)
}

// predsFor returns one Pred of every op for column c, its constants
// drawn from the column's data when there is any.
func predsFor(rng *rand.Rand, rows []row.Row, c int, t row.Type) []*Pred {
	var val any
	if len(rows) > 0 {
		val = rows[rng.Intn(len(rows))][c]
	}
	if val == nil {
		val = map[row.Type]any{row.TInt: int64(7), row.TDate: int64(9001), row.TFloat: 2.5, row.TString: "c3", row.TBool: true}[t]
	}
	set := map[any]struct{}{row.SetKey(val): {}}
	preds := []*Pred{
		{Op: PredIn, Set: set}, {Op: PredIn, Set: set, Invert: true},
		{Op: PredIsNull}, {Op: PredIsNull, Invert: true},
	}
	for _, op := range []PredOp{PredEq, PredNe, PredLt, PredLe, PredGt, PredGe} {
		preds = append(preds, &Pred{Op: op, Val: val})
	}
	return preds
}

// selectAll runs a bound Selector over the whole column batch by batch.
func selectAll(s Selector, n int) []int {
	var out []int
	sel := make([]int, 0, BatchSize)
	for start := 0; start < n; start += BatchSize {
		sel = sel[:min(BatchSize, n-start)]
		for j := range sel {
			sel[j] = start + j
		}
		out = append(out, s(sel)...)
	}
	return out
}

// TestEncodedRoundTripEveryEncoding: a decoded partition is the
// partition that was spilled — per column the same encoding, size,
// statistics and values, and every scan predicate keeps the same
// positions — for every encoding, with and without NULLs, on empty,
// one-row and multi-batch partitions.
func TestEncodedRoundTripEveryEncoding(t *testing.T) {
	covered := map[string]bool{}
	for _, n := range []int{0, 1, BatchSize + 1} {
		for _, nulls := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(n)))
			p, rows := genPartition(rng, n, nulls)
			_, data := p.MarshalShuffle()
			q, err := DecodePartition(data)
			if err != nil {
				t.Fatalf("n=%d nulls=%v: %v", n, nulls, err)
			}
			if q.N != p.N || !reflect.DeepEqual(q.Schema, p.Schema) || q.SizeBytes() != p.SizeBytes() {
				t.Fatalf("n=%d nulls=%v: shape N=%d/%d size=%d/%d", n, nulls, q.N, p.N, q.SizeBytes(), p.SizeBytes())
			}
			for c, pc := range p.Cols {
				qc := q.Cols[c]
				where := fmt.Sprintf("n=%d nulls=%v col %s", n, nulls, p.Schema[c].Name)
				if qc.Encoding() != pc.Encoding() || qc.SizeBytes() != pc.SizeBytes() || qc.Type() != pc.Type() || qc.Len() != pc.Len() {
					t.Fatalf("%s: encoding %s/%s size %d/%d", where, qc.Encoding(), pc.Encoding(), qc.SizeBytes(), pc.SizeBytes())
				}
				if !sameStats(q.Stats[c], p.Stats[c]) {
					t.Fatalf("%s: stats %#v, want %#v", where, q.Stats[c], p.Stats[c])
				}
				for i := 0; i < n; i++ {
					if !sameValue(qc.Get(i), pc.Get(i)) {
						t.Fatalf("%s: row %d = %v, want %v", where, i, qc.Get(i), pc.Get(i))
					}
				}
				for _, pr := range predsFor(rng, rows, c, p.Schema[c].Type) {
					if got, want := selectAll(pr.Bind(qc), n), selectAll(pr.Bind(pc), n); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: pred %+v keeps %d rows, want %d", where, pr, len(got), len(want))
					}
				}
				if n > 1 {
					covered[fmt.Sprintf("%v/%s/nulls=%v", p.Schema[c].Type, pc.Encoding(), p.Stats[c].NullCount > 0)] = true
				}
			}
		}
	}
	for _, g := range genCols {
		for _, nulls := range []bool{false, true} {
			if k := fmt.Sprintf("%v/%s/nulls=%v", g.typ, g.enc, nulls); !covered[k] {
				t.Errorf("encoding %s not covered", k)
			}
		}
	}
}

// FuzzDecodePartition: arbitrary bytes either decode into a partition
// whose every row and predicate is safe to evaluate, or return an
// error — never a panic, and never an allocation out of proportion to
// the input.
func FuzzDecodePartition(f *testing.F) {
	for _, n := range []int{0, 1, 300} {
		for _, nulls := range []bool{false, true} {
			p, _ := genPartition(rand.New(rand.NewSource(int64(n))), n, nulls)
			_, data := p.MarshalShuffle()
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		p, err := DecodePartition(data)
		runtime.ReadMemStats(&ms1)
		if alloc := ms1.TotalAlloc - ms0.TotalAlloc; alloc > 128*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		n := min(p.N, 2*BatchSize)
		rng := rand.New(rand.NewSource(1))
		for c, col := range p.Cols {
			for i := 0; i < n; i++ {
				col.Get(i)
			}
			for _, pr := range predsFor(rng, nil, c, p.Schema[c].Type) {
				selectAll(pr.Bind(col), n)
			}
		}
		p.MarshalShuffle()
	})
}
