package core

import (
	"fmt"
	"testing"

	"shark/internal/exec"
)

// TestPlanCacheKeepsIdentifierCase runs aliases that differ only in
// case back to back: each statement must name its column as written,
// with the plan cache on and off. Statements that differ only in
// keyword case still share one cache entry.
func TestPlanCacheKeepsIdentifierCase(t *testing.T) {
	for _, cached := range []bool{true, false} {
		t.Run(fmt.Sprintf("plancache=%v", cached), func(t *testing.T) {
			e := newEnv(t, exec.Options{})
			if !cached {
				e.s.Plans = nil
			}
			e.writeDFS(t, "rankings", rankingsSchema, genRankings(50))
			for _, c := range []struct{ sql, col string }{
				{"SELECT pageRank AS Foo FROM rankings", "Foo"},
				{"SELECT pageRank AS foo FROM rankings", "foo"},
				{"SELECT pageRank Foo FROM rankings", "Foo"},
				{"SELECT pageRank foo FROM rankings", "foo"},
				{"SELECT PageRank FROM rankings", "PageRank"},
				{"SELECT pagerank FROM rankings", "pagerank"},
			} {
				res := e.mustExec(t, c.sql)
				if got := res.Schema[0].Name; got != c.col {
					t.Errorf("%q: column %q, want %q", c.sql, got, c.col)
				}
			}
			if !cached {
				return
			}
			misses := e.s.Plans.misses.Load()
			res := e.mustExec(t, "select pageRank as Foo from rankings")
			if e.s.Plans.misses.Load() != misses || res.Schema[0].Name != "Foo" {
				t.Errorf("keyword case alone must hit the plan cache (column %q)", res.Schema[0].Name)
			}
		})
	}
}
