package main

import (
	"database/sql"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Float aggregates are compared with this relative tolerance (and the
// same absolute tolerance near zero): the engine sums partitions in a
// different order than the reference loop, so the last bits of a sum
// may differ. Every other value must match exactly, type included.
const floatTol = 1e-9

// canon converts a value scanned from database/sql into the form the
// reference answers use: DATE columns arrive as time.Time and become
// days since the epoch; int64, float64, string, bool and nil pass
// through.
func canon(v any) any {
	switch x := v.(type) {
	case time.Time:
		return x.Unix() / 86400
	case []byte:
		return string(x)
	}
	return v
}

// rowCheck verifies a result row by row as it streams in, so the
// client keeps no copy of large results. add gets each row in
// canonical form and must not keep the slice; done reports the first
// difference from the reference answer, or nil.
type rowCheck interface {
	add(row []any)
	done() error
}

// exactCheck holds a small result and compares it with every expected
// row at the end.
type exactCheck struct {
	want, got [][]any
	ordered   bool
}

func (c *exactCheck) add(r []any) { c.got = append(c.got, append([]any(nil), r...)) }
func (c *exactCheck) done() error { return compareRows(c.got, c.want, c.ordered) }

// expect returns a check against the full reference answer want.
func expect(want [][]any, ordered bool) func() rowCheck {
	return func() rowCheck { return &exactCheck{want: want, ordered: ordered} }
}

// scanAll streams every row of rs into chk and closes rs. It returns
// the row count and when the first Next returned, measured from t0.
func scanAll(rs *sql.Rows, t0 time.Time, chk rowCheck) (n int, first time.Duration, err error) {
	defer rs.Close()
	cols, err := rs.Columns()
	if err != nil {
		return 0, 0, err
	}
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rs.Next() {
		if n == 0 {
			first = time.Since(t0)
		}
		n++
		if err := rs.Scan(ptrs...); err != nil {
			return n, 0, err
		}
		for i := range vals {
			vals[i] = canon(vals[i])
		}
		chk.add(vals)
	}
	if n == 0 {
		first = time.Since(t0)
	}
	if err := rs.Err(); err != nil {
		return n, 0, err
	}
	return n, first, rs.Close()
}

// timedRows runs open, which issues one statement, and streams its
// result into chk. It returns the row count, the time to the first row
// and the total latency.
func timedRows(open func() (*sql.Rows, error), chk rowCheck) (int, time.Duration, time.Duration, error) {
	t0 := time.Now()
	rs, err := open()
	if err != nil {
		return 0, 0, 0, err
	}
	n, first, err := scanAll(rs, t0, chk)
	return n, first, time.Since(t0), err
}

// valueEqual compares one result value against its reference value.
// Two float64 values compare within floatTol; anything else must have
// the same type and value, so an integer aggregate that comes back as
// a float is a mismatch.
func valueEqual(got, want any) bool {
	gf, gFloat := got.(float64)
	wf, wFloat := want.(float64)
	if gFloat && wFloat {
		return math.Abs(gf-wf) <= floatTol*math.Max(1, math.Max(math.Abs(gf), math.Abs(wf)))
	}
	return got == want
}

// sortKey renders a row's exactly-compared values, the order used to
// line up unordered results; float columns are left out so rounding
// differences cannot reorder rows.
func sortKey(r []any) string {
	var b strings.Builder
	for _, v := range r {
		if _, isFloat := v.(float64); isFloat {
			continue
		}
		fmt.Fprintf(&b, "%v\x00", v)
	}
	return b.String()
}

// sortRows orders rows by sortKey, then by their float values.
func sortRows(rows [][]any) {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = sortKey(r)
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		if ka != kb {
			return ka < kb
		}
		ra, rb := rows[idx[a]], rows[idx[b]]
		for i := range ra {
			fa, aok := ra[i].(float64)
			fb, bok := rb[i].(float64)
			if aok && bok && fa != fb {
				return fa < fb
			}
		}
		return false
	})
	sorted := make([][]any, len(rows))
	for i, j := range idx {
		sorted[i] = rows[j]
	}
	copy(rows, sorted)
}

// compareRows checks a result against its reference answer. ordered
// results must match row by row; unordered ones are compared as
// multisets. The error names the first difference.
func compareRows(got, want [][]any, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	if !ordered {
		got = append([][]any(nil), got...)
		want = append([][]any(nil), want...)
		sortRows(got)
		sortRows(want)
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: got %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if !valueEqual(got[i][j], want[i][j]) {
				return fmt.Errorf("row %d column %d: got %v (%T), want %v (%T)",
					i, j, got[i][j], got[i][j], want[i][j], want[i][j])
			}
		}
	}
	return nil
}
