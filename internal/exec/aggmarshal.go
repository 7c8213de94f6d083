package exec

import (
	"fmt"

	"shark/internal/row"
	"shark/internal/shuffle"
)

// Disk-shuffle serialization for aggregation states (used when the
// engine runs with shuffle.Disk, e.g. the §5 shuffle ablation or the
// public DiskShuffle option, and when a shuffle bucket spills). The
// encoding is self-describing — it carries every accumulator field
// regardless of aggregate kind — so decoding needs no aggregate specs.
//
// Layout: one binary row [nGroup, groupVals..., nAccs, acc0, acc1...]
// where each acc is [count, sumI, sumF, seen, min, max, nDistinct,
// distinct...].

const aggStateTag = "exec.aggState"

func init() {
	shuffle.RegisterDiskDecoder(aggStateTag, unmarshalAggState)
}

// MarshalShuffle implements shuffle.DiskMarshaler.
func (st *aggState) MarshalShuffle() (string, []byte) {
	out := row.Row{int64(len(st.groupVals))}
	out = append(out, st.groupVals...)
	out = append(out, int64(len(st.accs)))
	for i := range st.accs {
		a := &st.accs[i]
		out = append(out, a.count, a.sumI, a.sumF, a.seen, a.min, a.max)
		out = append(out, int64(len(a.distinct)))
		for v := range a.distinct {
			out = append(out, v)
		}
	}
	return aggStateTag, row.EncodeBinary(nil, out)
}

func unmarshalAggState(data []byte) (any, error) {
	r, used, err := row.DecodeBinary(data)
	if err != nil {
		return nil, fmt.Errorf("exec: aggregation state: %w", err)
	}
	if used != len(data) {
		return nil, fmt.Errorf("exec: aggregation state: %d trailing bytes", len(data)-used)
	}
	f := fieldReader{r: r}
	st := &aggState{groupVals: make(row.Row, f.count())}
	for g := range st.groupVals {
		st.groupVals[g] = f.next()
	}
	st.accs = make([]aggAcc, f.count())
	for a := range st.accs {
		acc := &st.accs[a]
		acc.count = field[int64](&f)
		acc.sumI = field[int64](&f)
		acc.sumF = field[float64](&f)
		acc.seen = field[bool](&f)
		acc.min = f.next()
		acc.max = f.next()
		if nD := f.count(); nD > 0 {
			acc.distinct = make(map[any]struct{}, nD)
			for d := 0; d < nD; d++ {
				acc.distinct[f.next()] = struct{}{}
			}
		}
	}
	if f.err == nil && f.i != len(r) {
		f.err = fmt.Errorf("%d trailing fields", len(r)-f.i)
	}
	if f.err != nil {
		return nil, fmt.Errorf("exec: aggregation state: %w", f.err)
	}
	return st, nil
}

// fieldReader walks a decoded state row. Reading past the end or a
// field of the wrong type sets err (the first failure sticks) and
// yields zero values, so a corrupt state fails the decode, never
// panics.
type fieldReader struct {
	r   row.Row
	i   int
	err error
}

func (f *fieldReader) next() any {
	if f.err != nil {
		return nil
	}
	if f.i >= len(f.r) {
		f.err = fmt.Errorf("truncated after %d fields", f.i)
		return nil
	}
	f.i++
	return f.r[f.i-1]
}

// field reads the next field as a T.
func field[T any](f *fieldReader) T {
	v, ok := f.next().(T)
	if !ok && f.err == nil {
		f.err = fmt.Errorf("field %d is %T, want %T", f.i-1, f.r[f.i-1], v)
	}
	return v
}

// count reads an element count, bounded by the fields left.
func (f *fieldReader) count() int {
	n := field[int64](f)
	if f.err == nil && (n < 0 || n > int64(len(f.r)-f.i)) {
		f.err = fmt.Errorf("count %d at field %d exceeds the %d fields left", n, f.i-1, len(f.r)-f.i)
	}
	if f.err != nil {
		return 0
	}
	return int(n)
}
