package columnar

import (
	"bytes"
	"math"
	"sort"

	"shark/internal/row"
)

// BatchSize is the number of rows a cached scan filters and
// materializes at a time. It is a constant, not a knob: large enough
// to amortize the per-batch setup, small enough that the selection
// vector stays in L1.
const BatchSize = 1024

// PredOp is the test a Pred applies.
type PredOp uint8

// Pred operators.
const (
	PredEq PredOp = iota
	PredNe
	PredLt
	PredLe
	PredGt
	PredGe
	// PredIn tests membership in Set (NOT IN when Invert).
	PredIn
	// PredIsNull tests for NULL (IS NOT NULL when Invert).
	PredIsNull
)

// Pred is a single-column predicate that a scan evaluates on the
// encoded column, before any value is boxed. It answers exactly what
// the compiled expression answers on the boxed value: NULL satisfies
// only IS NULL, comparisons order as row.Compare does (so NaN compares
// equal to every float), and IN probes Set with row.SetKey.
//
// Val is the comparison constant in the column's value class: int64
// for TInt and TDate, float64 for TFloat, string for TString, bool for
// TBool.
type Pred struct {
	Op     PredOp
	Val    any
	Set    map[any]struct{} // PredIn: the literal set of expr.In
	Invert bool
}

// Selector narrows an ascending selection vector of row positions in
// place and returns the kept prefix.
type Selector func(sel []int) []int

// Bind specializes p to col's encoding: an RLE column is tested once
// per run, a dictionary column once per entry and then by code, a
// bit-packed column in the packed domain, a raw column directly. NULL
// positions are masked from the null bitmap. The Selector serves every
// batch of the partition.
func (p *Pred) Bind(col Column) Selector {
	nulls := col.nullWords()
	if p.Op == PredIsNull {
		want := !p.Invert
		return func(sel []int) []int { return keepNulls(nulls, sel, want) }
	}
	f := col.bind(p)
	if nulls == nil {
		return f
	}
	return func(sel []int) []int { return keepNulls(nulls, f(sel), false) }
}

// keepNulls keeps the positions whose NULL-ness equals want.
func keepNulls(nulls []uint64, sel []int, want bool) []int {
	if nulls == nil {
		if want {
			return sel[:0]
		}
		return sel
	}
	k := 0
	for _, i := range sel {
		if (nulls[i>>6]&(1<<(uint(i)&63)) != 0) == want {
			sel[k] = i
			k++
		}
	}
	return sel[:k]
}

// ---------------------------------------------------------------------------
// Value matchers: Pred specialized to one value class.

// cmpHolds reports whether the three-way comparison c satisfies op.
func cmpHolds(op PredOp, c int) bool {
	switch op {
	case PredEq:
		return c == 0
	case PredNe:
		return c != 0
	case PredLt:
		return c < 0
	case PredLe:
		return c <= 0
	case PredGt:
		return c > 0
	}
	return c >= 0
}

// cmpFloat is row.Compare on two floats: NaN is neither less nor
// greater, so it compares equal.
func cmpFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// intRange is an integer comparison as the closed interval [lo, hi],
// complemented for <>. lo > hi is empty.
type intRange struct {
	lo, hi int64
	neg    bool
}

func intRangeOf(op PredOp, k int64) intRange {
	r := intRange{lo: math.MinInt64, hi: math.MaxInt64}
	switch op {
	case PredEq:
		r.lo, r.hi = k, k
	case PredNe:
		r.lo, r.hi, r.neg = k, k, true
	case PredLt:
		if k == math.MinInt64 {
			return intRange{lo: 1}
		}
		r.hi = k - 1
	case PredLe:
		r.hi = k
	case PredGt:
		if k == math.MaxInt64 {
			return intRange{lo: 1}
		}
		r.lo = k + 1
	case PredGe:
		r.lo = k
	}
	return r
}

func (r intRange) holds(v int64) bool { return (v >= r.lo && v <= r.hi) != r.neg }

// codes maps the interval onto the codes v-base of a bit-packed
// column; the complement flag carries over unchanged.
func (r intRange) codes(base int64) (lo, hi uint64) {
	if r.lo > r.hi || r.hi < base {
		return 1, 0
	}
	if r.lo > base {
		lo = uint64(r.lo) - uint64(base)
	}
	return lo, uint64(r.hi) - uint64(base)
}

func intMatcher(p *Pred) func(int64) bool {
	if p.Op == PredIn {
		// Only int64 keys can match: SetKey leaves int64 probes as
		// they are, and non-integral float keys never equal one.
		keys := make(map[int64]struct{}, len(p.Set))
		for k := range p.Set {
			if v, ok := k.(int64); ok {
				keys[v] = struct{}{}
			}
		}
		inv := p.Invert
		return func(v int64) bool { _, ok := keys[v]; return ok != inv }
	}
	return intRangeOf(p.Op, p.Val.(int64)).holds
}

func floatMatcher(p *Pred) func(float64) bool {
	if p.Op == PredIn {
		set, inv := p.Set, p.Invert
		return func(v float64) bool { _, ok := set[row.SetKey(v)]; return ok != inv }
	}
	op, k := p.Op, p.Val.(float64)
	return func(v float64) bool { return cmpHolds(op, cmpFloat(v, k)) }
}

func stringMatcher(p *Pred) func([]byte) bool {
	if p.Op == PredIn {
		keys := make(map[string]struct{}, len(p.Set))
		for k := range p.Set {
			if s, ok := k.(string); ok {
				keys[s] = struct{}{}
			}
		}
		inv := p.Invert
		return func(b []byte) bool { _, ok := keys[string(b)]; return ok != inv }
	}
	op, k := p.Op, []byte(p.Val.(string))
	return func(b []byte) bool { return cmpHolds(op, bytes.Compare(b, k)) }
}

func boolMatcher(p *Pred) func(bool) bool {
	if p.Op == PredIn {
		set, inv := p.Set, p.Invert
		return func(v bool) bool { _, ok := set[v]; return ok != inv }
	}
	op, k := p.Op, b2i(p.Val.(bool))
	return func(v bool) bool { return cmpHolds(op, b2i(v)-k) }
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Selection kernels shared by the encodings.

func selectRaw[T any](vals []T, match func(T) bool, sel []int) []int {
	k := 0
	for _, i := range sel {
		if match(vals[i]) {
			sel[k] = i
			k++
		}
	}
	return sel[:k]
}

// runOf returns the run holding position i.
func runOf(ends []uint32, i int) int {
	return sort.Search(len(ends), func(j int) bool { return ends[j] > uint32(i) })
}

// selectRuns tests each run the selection reaches once, walking
// forward along the ascending selection. A dense selection (a whole
// batch) is rebuilt run by run instead, writing only the kept
// positions.
func selectRuns[T any](vals []T, ends []uint32, match func(T) bool, sel []int) []int {
	if len(sel) == 0 {
		return sel
	}
	r := runOf(ends, sel[0])
	if first, last := sel[0], sel[len(sel)-1]; last-first == len(sel)-1 {
		k := 0
		for start := first; start <= last; r++ {
			end := min(int(ends[r]), last+1)
			if match(vals[r]) {
				for i := start; i < end; i++ {
					sel[k] = i
					k++
				}
			}
			start = end
		}
		return sel[:k]
	}
	hit := match(vals[r])
	k := 0
	for _, i := range sel {
		if uint32(i) >= ends[r] {
			for uint32(i) >= ends[r] {
				r++
			}
			hit = match(vals[r])
		}
		if hit {
			sel[k] = i
			k++
		}
	}
	return sel[:k]
}

// matchDict tests every dictionary entry once.
func matchDict[T any](dict []T, match func(T) bool) []bool {
	hit := make([]bool, len(dict))
	for j, v := range dict {
		hit[j] = match(v)
	}
	return hit
}

// selectCodes keeps the positions whose dictionary code hits.
func selectCodes(words []uint64, width uint, hit []bool, sel []int) []int {
	k := 0
	for _, i := range sel {
		if hit[unpack(words, uint(i), width)] {
			sel[k] = i
			k++
		}
	}
	return sel[:k]
}

// ---------------------------------------------------------------------------
// Gather kernels shared by the encodings.

func gatherRaw[T any](n *nullable, vals []T, sel []int, out []any, stride int) {
	for k, i := range sel {
		if n.isNull(i) {
			out[k*stride] = nil
		} else {
			out[k*stride] = vals[i]
		}
	}
}

// gatherRuns walks forward along the ascending selection and boxes
// each run's value once.
func gatherRuns[T any](n *nullable, vals []T, ends []uint32, sel []int, out []any, stride int) {
	if len(sel) == 0 {
		return
	}
	r := runOf(ends, sel[0])
	var boxed any = vals[r]
	for k, i := range sel {
		if uint32(i) >= ends[r] {
			for uint32(i) >= ends[r] {
				r++
			}
			boxed = vals[r]
		}
		if n.isNull(i) {
			out[k*stride] = nil
		} else {
			out[k*stride] = boxed
		}
	}
}

func gatherDict[T any](n *nullable, dict []T, words []uint64, width uint, sel []int, out []any, stride int) {
	for k, i := range sel {
		if n.isNull(i) {
			out[k*stride] = nil
		} else {
			out[k*stride] = dict[unpack(words, uint(i), width)]
		}
	}
}

// ---------------------------------------------------------------------------
// Per-encoding select and gather.

func (c *rawInt64) bind(p *Pred) Selector {
	if p.Op == PredIn {
		m := intMatcher(p)
		return func(sel []int) []int { return selectRaw(c.v, m, sel) }
	}
	r := intRangeOf(p.Op, p.Val.(int64))
	return func(sel []int) []int {
		k := 0
		for _, i := range sel {
			if v := c.v[i]; (v >= r.lo && v <= r.hi) != r.neg {
				sel[k] = i
				k++
			}
		}
		return sel[:k]
	}
}

func (c *rawInt64) Gather(sel []int, out []any, stride int) {
	gatherRaw(&c.nullable, c.v, sel, out, stride)
}

func (c *rleInt64) bind(p *Pred) Selector {
	m := intMatcher(p)
	return func(sel []int) []int { return selectRuns(c.vals, c.ends, m, sel) }
}

func (c *rleInt64) Gather(sel []int, out []any, stride int) {
	gatherRuns(&c.nullable, c.vals, c.ends, sel, out, stride)
}

// bind compares codes against the interval shifted by base, without
// decoding; IN probes decoded values.
func (c *packedInt64) bind(p *Pred) Selector {
	if p.Op == PredIn {
		m := intMatcher(p)
		return func(sel []int) []int {
			k := 0
			for _, i := range sel {
				if m(c.base + int64(unpack(c.words, uint(i), c.width))) {
					sel[k] = i
					k++
				}
			}
			return sel[:k]
		}
	}
	r := intRangeOf(p.Op, p.Val.(int64))
	lo, hi := r.codes(c.base)
	return func(sel []int) []int {
		k := 0
		for _, i := range sel {
			if code := unpack(c.words, uint(i), c.width); (code >= lo && code <= hi) != r.neg {
				sel[k] = i
				k++
			}
		}
		return sel[:k]
	}
}

func (c *packedInt64) Gather(sel []int, out []any, stride int) {
	for k, i := range sel {
		if c.isNull(i) {
			out[k*stride] = nil
		} else {
			out[k*stride] = c.base + int64(unpack(c.words, uint(i), c.width))
		}
	}
}

func (c *dictInt64) bind(p *Pred) Selector {
	hit := matchDict(c.dict, intMatcher(p))
	return func(sel []int) []int { return selectCodes(c.words, c.width, hit, sel) }
}

func (c *dictInt64) Gather(sel []int, out []any, stride int) {
	gatherDict(&c.nullable, c.dict, c.words, c.width, sel, out, stride)
}

func (c *rawFloat64) bind(p *Pred) Selector {
	m := floatMatcher(p)
	return func(sel []int) []int { return selectRaw(c.v, m, sel) }
}

func (c *rawFloat64) Gather(sel []int, out []any, stride int) {
	gatherRaw(&c.nullable, c.v, sel, out, stride)
}

func (c *rleFloat64) bind(p *Pred) Selector {
	m := floatMatcher(p)
	return func(sel []int) []int { return selectRuns(c.vals, c.ends, m, sel) }
}

func (c *rleFloat64) Gather(sel []int, out []any, stride int) {
	gatherRuns(&c.nullable, c.vals, c.ends, sel, out, stride)
}

func (c *rawString) bind(p *Pred) Selector {
	m := stringMatcher(p)
	return func(sel []int) []int {
		k := 0
		for _, i := range sel {
			if m(c.bytes[c.offsets[i]:c.offsets[i+1]]) {
				sel[k] = i
				k++
			}
		}
		return sel[:k]
	}
}

func (c *rawString) Gather(sel []int, out []any, stride int) {
	for k, i := range sel {
		if c.isNull(i) {
			out[k*stride] = nil
		} else {
			out[k*stride] = string(c.bytes[c.offsets[i]:c.offsets[i+1]])
		}
	}
}

func (c *dictString) bind(p *Pred) Selector {
	m := stringMatcher(p)
	hit := matchDict(c.dict, func(s string) bool { return m([]byte(s)) })
	return func(sel []int) []int { return selectCodes(c.words, c.width, hit, sel) }
}

func (c *dictString) Gather(sel []int, out []any, stride int) {
	gatherDict(&c.nullable, c.dict, c.words, c.width, sel, out, stride)
}

func (c *boolColumn) bind(p *Pred) Selector {
	m := boolMatcher(p)
	return func(sel []int) []int {
		k := 0
		for _, i := range sel {
			if m(c.bitsv[i>>6]&(1<<(uint(i)&63)) != 0) {
				sel[k] = i
				k++
			}
		}
		return sel[:k]
	}
}

func (c *boolColumn) Gather(sel []int, out []any, stride int) {
	for k, i := range sel {
		if c.isNull(i) {
			out[k*stride] = nil
		} else {
			out[k*stride] = c.bitsv[i>>6]&(1<<(uint(i)&63)) != 0
		}
	}
}
