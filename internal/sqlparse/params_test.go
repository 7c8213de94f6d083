package sqlparse

import (
	"strings"
	"testing"

	"shark/internal/row"
)

func TestParseParams(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE b = ? AND c IN (?, ?) LIMIT 5")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if n := NumParams(stmt); n != 3 {
		t.Fatalf("NumParams = %d, want 3", n)
	}
	sel := stmt.(*SelectStmt)
	if got := sel.Where.String(); !strings.Contains(got, "?") {
		t.Fatalf("where should render placeholders, got %s", got)
	}
}

func TestBindSubstitutesTypedValues(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE b = ? AND c > ? AND d = ?")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	args := row.Row{"it's -- not\\a comment", int64(7), true}
	bound, err := Bind(stmt, args)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	where := bound.(*SelectStmt).Where.String()
	if !strings.Contains(where, "it's -- not\\a comment") {
		t.Fatalf("string arg not carried verbatim: %s", where)
	}
	if !strings.Contains(where, "7") || !strings.Contains(where, "true") {
		t.Fatalf("typed args missing from bound statement: %s", where)
	}
	// The original must be reusable: still parameterized.
	if n := NumParams(stmt); n != 3 {
		t.Fatalf("original statement mutated by Bind: NumParams=%d", n)
	}
	if n := NumParams(bound); n != 0 {
		t.Fatalf("bound statement still has %d params", n)
	}
	// Binding again with different args works off the same AST.
	bound2, err := Bind(stmt, row.Row{"x", int64(1), false})
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	if bound2.(*SelectStmt).Where.String() == where {
		t.Fatal("second bind produced identical literals")
	}
}

func TestBindParamsInSubqueryAndCTAS(t *testing.T) {
	stmt, err := Parse("SELECT x FROM (SELECT a AS x FROM t WHERE a > ?) s WHERE x < ?")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if n := NumParams(stmt); n != 2 {
		t.Fatalf("NumParams = %d, want 2", n)
	}
	if _, err := Bind(stmt, row.Row{int64(1), int64(10)}); err != nil {
		t.Fatalf("bind: %v", err)
	}

	ctas, err := Parse("CREATE TABLE c AS SELECT a FROM t WHERE a = ?")
	if err != nil {
		t.Fatalf("parse ctas: %v", err)
	}
	if n := NumParams(ctas); n != 1 {
		t.Fatalf("ctas NumParams = %d, want 1", n)
	}
}

func TestBindErrors(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE b = ?")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := Bind(stmt, nil); err == nil {
		t.Fatal("want arg-count error for 0 args")
	}
	if _, err := Bind(stmt, row.Row{int64(1), int64(2)}); err == nil {
		t.Fatal("want arg-count error for 2 args")
	}
	if _, err := Bind(stmt, row.Row{[]byte("raw")}); err == nil {
		t.Fatal("want type error for non-model value")
	}
}

func TestNormalize(t *testing.T) {
	a := Normalize("select  a,b from t -- trailing comment\n where x='it''s' AND y is not null")
	b := Normalize("SELECT a , b FROM t WHERE x = 'it''s' and y IS NOT NULL")
	if a != b {
		t.Fatalf("normalize mismatch:\n  %q\n  %q", a, b)
	}
	// Identifier case is kept: it spells the output column names.
	for _, pair := range [][2]string{
		{"SELECT a AS Foo FROM t", "SELECT a AS foo FROM t"},
		{"SELECT a Foo FROM t", "SELECT a foo FROM t"},
		{"SELECT A FROM t", "SELECT a FROM t"},
		{"SELECT t.Limit FROM t", "SELECT t.LIMIT FROM t"}, // keyword-spelled column
		{"SELECT a AS Limit FROM t", "SELECT a AS limit FROM t"},
	} {
		if Normalize(pair[0]) == Normalize(pair[1]) {
			t.Errorf("identifier case folded: %q and %q both normalize to %q", pair[0], pair[1], Normalize(pair[0]))
		}
	}
	if !strings.Contains(a, "'it''s'") {
		t.Fatalf("string literal not re-quoted stably: %q", a)
	}
	// Placeholders survive normalization (they are the cache-key slots).
	p := Normalize("SELECT a FROM t WHERE b = ?")
	if !strings.Contains(p, "?") {
		t.Fatalf("placeholder lost: %q", p)
	}
	// Different literals produce different keys.
	if Normalize("SELECT 1") == Normalize("SELECT 2") {
		t.Fatal("distinct literals normalized identically")
	}
	// Unlexable text falls back to verbatim.
	if got := Normalize("SELECT $bogus"); got != "SELECT $bogus" {
		t.Fatalf("fallback = %q", got)
	}
	// Backslashes in strings stay stable across a re-normalize.
	s := Normalize(`SELECT 'a\\b'`)
	if Normalize(s) != s {
		t.Fatalf("normalize not idempotent for escapes: %q -> %q", s, Normalize(s))
	}
}
