package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestCompareRowsUnorderedWithTolerance(t *testing.T) {
	want := [][]any{{"A", int64(2), 10.0}, {"B", int64(1), 0.3}}
	got := [][]any{{"B", int64(1), 0.1 + 0.2}, {"A", int64(2), 10.0 * (1 + 1e-12)}}
	if err := compareRows(got, want, false); err != nil {
		t.Errorf("rounding-level differences must match: %v", err)
	}
	if err := compareRows(got, want, true); err == nil {
		t.Error("ordered comparison accepted rows out of order")
	}
	bad := [][]any{{"B", int64(1), 0.3}, {"A", int64(2), 10.001}}
	if err := compareRows(bad, want, false); err == nil {
		t.Error("a float off by 1e-4 relative was accepted")
	}
	if err := compareRows([][]any{{"B", int64(1), 0.3}, {"A", int64(3), 10.0}}, want, false); err == nil {
		t.Error("an integer mismatch was accepted")
	}
	if err := compareRows(want[:1], want, false); err == nil {
		t.Error("a missing row was accepted")
	}
	if err := compareRows([][]any{{"A", 2.0, 10.0}, {"B", int64(1), 0.3}}, want, false); err == nil {
		t.Error("a float in place of an integer was accepted")
	}
	if err := compareRows([][]any{{"A", int64(2), int64(10)}, {"B", int64(1), 0.3}}, want, false); err == nil {
		t.Error("an integer in place of a float was accepted")
	}
}

func TestCompareRowsDuplicates(t *testing.T) {
	want := [][]any{{int64(1)}, {int64(1)}, {int64(2)}}
	if err := compareRows([][]any{{int64(2)}, {int64(1)}, {int64(1)}}, want, false); err != nil {
		t.Error(err)
	}
	if err := compareRows([][]any{{int64(2)}, {int64(2)}, {int64(1)}}, want, false); err == nil {
		t.Error("multiset comparison ignored duplicate counts")
	}
}

func TestCanonDates(t *testing.T) {
	d := mustDate("1995-03-15")
	if got := canon(time.Unix(d*86400, 0).UTC()); got != d {
		t.Errorf("canon(date) = %v, want %d", got, d)
	}
	if got := canon([]byte("x")); got != "x" {
		t.Errorf("canon(bytes) = %v", got)
	}
}

// wantOf is the full reference answer of a query checked by expect.
func wantOf(t *testing.T, q benchQuery) [][]any {
	t.Helper()
	c, ok := q.check().(*exactCheck)
	if !ok {
		t.Fatalf("%s is not checked against a full answer", q.name)
	}
	return c.want
}

// The reference answers are checked against direct row-at-a-time
// evaluation over a small generated table.
func TestOlapReferenceAnswers(t *testing.T) {
	l := genLineitem(7, 4000, 50)
	s := genSupplier(8, 50)
	qs := olapQueries(l, s, rand.New(rand.NewSource(9)))
	byName := map[string]benchQuery{}
	for _, q := range qs {
		byName[q.name] = q
	}
	if len(byName) != 9 {
		t.Fatalf("%d query classes, want 9", len(byName))
	}
	// Every row lands in exactly one date group and one supplier group.
	var rows, bySupplier int64
	for _, r := range wantOf(t, byName["date_groups_2500"]) {
		rows += r[1].(int64)
	}
	for _, r := range wantOf(t, byName["supplier_groups_minmax"]) {
		bySupplier += r[1].(int64)
		if r[2].(float64) > r[3].(float64) {
			t.Errorf("supplier %v: min %v > max %v", r[0], r[2], r[3])
		}
	}
	if rows != int64(l.n) || bySupplier != int64(l.n) {
		t.Errorf("date groups cover %d rows, supplier groups %d, want %d", rows, bySupplier, l.n)
	}
	// The top-K answer is the 10 largest prices, descending.
	top := wantOf(t, byName[topkQuery])
	if len(top) != 10 {
		t.Fatalf("top-K has %d rows", len(top))
	}
	var above int
	for i := 0; i < l.n; i++ {
		if l.price[i] > top[9][0].(float64) {
			above++
		}
	}
	if above > 9 {
		t.Errorf("%d prices exceed the 10th largest", above)
	}
	for i := 1; i < len(top); i++ {
		if top[i][0].(float64) > top[i-1][0].(float64) {
			t.Errorf("top-K not descending at %d", i)
		}
	}
	// The join's and Q1's group counts stay within the table.
	var joined, total int64
	for _, r := range wantOf(t, byName["join_supplier_agg"]) {
		joined += r[1].(int64)
	}
	for _, r := range wantOf(t, byName["q1_multi_agg"]) {
		total += r[5].(int64)
	}
	if joined <= 0 || joined > int64(l.n) || total <= 0 || total > int64(l.n) {
		t.Errorf("join covers %d rows, q1 %d rows of %d", joined, total, l.n)
	}
}

// feed runs rows through a fresh check of q.
func feed(q benchQuery, rows [][]any) error {
	chk := q.check()
	for _, r := range rows {
		chk.add(r)
	}
	return chk.done()
}

func TestOrderGroupsCheck(t *testing.T) {
	l := genLineitem(7, 400, 5)
	var q benchQuery
	for _, c := range olapQueries(l, genSupplier(8, 5), rand.New(rand.NewSource(9))) {
		if c.name == "order_groups" {
			q = c
		}
	}
	var good [][]any
	for k := 0; k < 100; k++ {
		var price float64
		for i := 4 * k; i < 4*k+4; i++ {
			price += l.price[i]
		}
		good = append(good, []any{int64(k), int64(4), price})
	}
	if err := feed(q, good); err != nil {
		t.Errorf("correct result rejected: %v", err)
	}
	if feed(q, good[1:]) == nil {
		t.Error("a missing order was accepted")
	}
	if feed(q, append(good[:99:99], good[0])) == nil {
		t.Error("a duplicated order was accepted")
	}
	bad := append([][]any(nil), good...)
	bad[5] = []any{int64(5), int64(3), good[5][2]}
	if feed(q, bad) == nil {
		t.Error("a wrong count was accepted")
	}
}

func TestExportCheck(t *testing.T) {
	l := genLineitem(7, 4000, 50)
	var q benchQuery
	for _, c := range olapQueries(l, genSupplier(8, 50), rand.New(rand.NewSource(9))) {
		if c.name == exportQuery {
			q = c
		}
	}
	ec := q.check().(*exportCheck)
	var good [][]any
	for i := 0; i < l.n; i++ {
		if l.date[i] >= ec.lo && l.date[i] <= ec.hi {
			good = append(good, []any{l.orderKey(i), l.partKey[i], l.suppKey[i], l.qty[i], l.price[i], l.disc[i], shipModes[l.mode[i]], l.date[i]})
		}
	}
	if len(good) == 0 {
		t.Fatal("empty export window")
	}
	if err := feed(q, good); err != nil {
		t.Errorf("correct export rejected: %v", err)
	}
	if feed(q, good[1:]) == nil {
		t.Error("a missing row was accepted")
	}
	if feed(q, append(good[:len(good)-1:len(good)-1], good[0])) == nil {
		t.Error("a duplicated row was accepted")
	}
	bad := append([][]any(nil), good...)
	r := append([]any(nil), bad[0]...)
	r[4] = r[4].(float64) + 0.01
	bad[0] = r
	if feed(q, bad) == nil {
		t.Error("a changed price was accepted")
	}
}

func TestServeReferenceAnswers(t *testing.T) {
	l := genLineitem(3, 1000, 20)
	s := genSupplier(4, 20)
	refs := newServeRefs(l, s)
	got := refs.rangeAgg(10, 19)[0]
	var n, qty int64
	var price float64
	for i := 0; i < l.n; i++ {
		if k := l.orderKey(i); k >= 10 && k <= 19 {
			n++
			qty += l.qty[i]
			price += l.price[i]
		}
	}
	if err := compareRows([][]any{got}, [][]any{{n, qty, price}}, true); err != nil {
		t.Errorf("range aggregate: %v", err)
	}
	if pts := refs.point(249); len(pts) != 4 {
		t.Errorf("last order has %d lines, want 4", len(pts))
	}
	var rolled int64
	for _, r := range refs.rollup(100) {
		rolled += r[1].(int64)
	}
	if rolled != 400 {
		t.Errorf("rollup over 100 orders counts %d lines, want 400", rolled)
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b, c := genLineitem(5, 100, 10), genLineitem(5, 100, 10), genLineitem(6, 100, 10)
	same, differ := true, false
	for i := 0; i < 100; i++ {
		same = same && a.price[i] == b.price[i] && a.date[i] == b.date[i]
		differ = differ || a.price[i] != c.price[i]
	}
	if !same || !differ {
		t.Errorf("same seed equal: %v; other seed differs: %v", same, differ)
	}
}
