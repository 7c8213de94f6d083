package plan

import (
	"shark/internal/columnar"
	"shark/internal/expr"
	"shark/internal/memtable"
	"shark/internal/row"
)

// Optimize applies the rule-based passes: predicate pushdown into
// scans (through joins, with index shifting). Column pruning already
// happened during analysis; constant folding during resolution. A
// cached scan's pushed conjuncts are split into pruning predicates,
// column kernels and residual conjuncts when it is compiled
// (SplitScanFilters).
func Optimize(root Node) Node {
	return pushFilters(root)
}

// pushFilters pushes filter conjuncts as close to the scans as
// possible.
func pushFilters(n Node) Node {
	switch t := n.(type) {
	case *Filter:
		t.Child = pushFilters(t.Child)
		var remaining []expr.Expr
		for _, c := range splitConjuncts(t.Cond) {
			if !tryPush(c, t.Child) {
				remaining = append(remaining, c)
			}
		}
		if len(remaining) == 0 {
			return t.Child
		}
		t.Cond = conjoin(remaining)
		return t
	case *Project:
		t.Child = pushFilters(t.Child)
	case *Aggregate:
		t.Child = pushFilters(t.Child)
	case *Join:
		t.Left = pushFilters(t.Left)
		t.Right = pushFilters(t.Right)
	case *Sort:
		t.Child = pushFilters(t.Child)
	case *Limit:
		t.Child = pushFilters(t.Child)
	}
	return n
}

// tryPush attempts to sink one conjunct into n; returns true when the
// conjunct was absorbed.
func tryPush(c expr.Expr, n Node) bool {
	switch t := n.(type) {
	case *Scan:
		t.Filters = append(t.Filters, c)
		return true
	case *Filter:
		if tryPush(c, t.Child) {
			return true
		}
		t.Cond = &expr.And{L: t.Cond, R: c}
		return true
	case *Join:
		nl := len(t.Left.Schema())
		cols := colsOf(c)
		allLeft, allRight := true, true
		for _, idx := range cols {
			if idx >= nl {
				allLeft = false
			} else {
				allRight = false
			}
		}
		if len(cols) == 0 {
			allRight = false // constant predicate: keep left-side placement
		}
		if allLeft {
			if !tryPush(c, t.Left) {
				t.Left = &Filter{Cond: c, Child: t.Left}
			}
			return true
		}
		if allRight {
			shifted := shiftCols(c, -nl)
			if !tryPush(shifted, t.Right) {
				t.Right = &Filter{Cond: shifted, Child: t.Right}
			}
			return true
		}
		return false
	}
	return false
}

// SplitScanFilters splits a cached scan's pushed-down conjuncts into
// column predicates and the residual conjuncts that must run per row.
// A conjunct of the form col⊕const, const⊕col, col [NOT] IN (literals)
// or col IS [NOT] NULL becomes one ColPredicate: its pruning bounds
// (inequalities relaxed to inclusive bounds, which never prunes a
// partition that could match) plus, when a column kernel reproduces it
// exactly, its Kernel. Every other conjunct (OR, NOT, LIKE,
// arithmetic), and a recognized one without a kernel (a NULL constant,
// an int column against a float constant), is residual.
func SplitScanFilters(filters []expr.Expr) (preds []memtable.ColPredicate, residual []expr.Expr) {
	for _, f := range filters {
		for _, c := range splitConjuncts(f) {
			p, ok := pruningOf(c)
			if ok {
				preds = append(preds, p)
			}
			if !ok || p.Kernel == nil {
				residual = append(residual, c)
			}
		}
	}
	return preds, residual
}

// pruningOf is the one recognizer of single-column conjuncts: the same
// match yields the pruning bounds and the exact kernel.
func pruningOf(c expr.Expr) (memtable.ColPredicate, bool) {
	switch e := c.(type) {
	case *expr.Cmp:
		col, konst, flipped := colConstSides(e.L, e.R)
		if col == nil {
			return memtable.ColPredicate{}, false
		}
		op := e.Op
		if flipped {
			op = flipCmp(op)
		}
		p := memtable.ColPredicate{Col: col.Idx}
		switch op {
		case expr.Eq:
			p.Lo, p.Hi = konst, konst
			p.Eq = []any{konst}
		case expr.Lt, expr.Le:
			p.Hi = konst
		case expr.Gt, expr.Ge:
			p.Lo = konst
		}
		if v, ok := kernelConst(col.T, konst); ok {
			p.Kernel = &columnar.Pred{Op: predOps[op], Val: v}
		}
		return p, true
	case *expr.In:
		col, ok := e.E.(*expr.Col)
		if !ok || e.Set == nil {
			return memtable.ColPredicate{}, false
		}
		p := memtable.ColPredicate{Col: col.Idx,
			Kernel: &columnar.Pred{Op: columnar.PredIn, Set: e.Set, Invert: e.Invert}}
		if !e.Invert {
			for v := range e.Set {
				p.Eq = append(p.Eq, v)
			}
		}
		return p, true
	case *expr.IsNull:
		col, ok := e.E.(*expr.Col)
		if !ok {
			return memtable.ColPredicate{}, false
		}
		return memtable.ColPredicate{Col: col.Idx,
			Kernel: &columnar.Pred{Op: columnar.PredIsNull, Invert: e.Invert}}, true
	}
	return memtable.ColPredicate{}, false
}

var predOps = [...]columnar.PredOp{
	expr.Eq: columnar.PredEq, expr.Ne: columnar.PredNe,
	expr.Lt: columnar.PredLt, expr.Le: columnar.PredLe,
	expr.Gt: columnar.PredGt, expr.Ge: columnar.PredGe,
}

// kernelConst converts a comparison constant to the value class of a
// column of type t, reporting false when no kernel compares them
// exactly. A float column takes an int constant as its float, which is
// how row.Compare orders the pair.
func kernelConst(t row.Type, v any) (any, bool) {
	switch t {
	case row.TInt, row.TDate:
		x, ok := v.(int64)
		return x, ok
	case row.TFloat:
		switch x := v.(type) {
		case float64:
			return x, true
		case int64:
			return float64(x), true
		}
	case row.TString:
		x, ok := v.(string)
		return x, ok
	case row.TBool:
		x, ok := v.(bool)
		return x, ok
	}
	return nil, false
}

func colConstSides(l, r expr.Expr) (col *expr.Col, konst any, flipped bool) {
	if c, ok := l.(*expr.Col); ok {
		if k, ok := r.(*expr.Const); ok {
			return c, k.V, false
		}
	}
	if c, ok := r.(*expr.Col); ok {
		if k, ok := l.(*expr.Const); ok {
			return c, k.V, true
		}
	}
	return nil, nil, false
}

func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.Lt:
		return expr.Gt
	case expr.Le:
		return expr.Ge
	case expr.Gt:
		return expr.Lt
	case expr.Ge:
		return expr.Le
	}
	return op
}
