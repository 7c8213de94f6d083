package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// Every Trace/Span method must absorb a nil receiver: that IS the
// tracing-off fast path.
func TestNilTraceFastPath(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan("x")
	if sp != nil {
		t.Fatalf("nil trace produced a span")
	}
	sp.End()
	sp.AddRows(1)
	sp.AddBytes(1)
	sp.AddTasks(1)
	tr.AddTask()
	tr.AddFetch(10)
	tr.Decision("d")
	tr.Finish(nil)
	if tr.Finished() || tr.Duration() != 0 || tr.Err() != "" {
		t.Fatalf("nil trace reported state")
	}
	if snap := tr.Snapshot(); snap.Tasks != 0 || len(snap.Spans) != 0 {
		t.Fatalf("nil trace snapshot not zero: %+v", snap)
	}
	if FromContext(context.Background()) != nil {
		t.Fatalf("empty context carried a trace")
	}
}

// TestSnapshotSpansExactCapacity pins the snapshot's span slice at its
// exact length: the query log retains snapshots, so append-growth slack
// would stay on the heap for as long as the log holds the entry.
func TestSnapshotSpansExactCapacity(t *testing.T) {
	tr := NewTrace("s", "q")
	if snap := tr.Snapshot(); snap.Spans != nil {
		t.Fatalf("span-less snapshot allocated spans: %v", snap.Spans)
	}
	for i := 0; i < 5; i++ {
		tr.StartSpan(fmt.Sprintf("stage:%d", i)).End()
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 5 || cap(snap.Spans) != 5 {
		t.Fatalf("spans len %d cap %d, want 5 and 5", len(snap.Spans), cap(snap.Spans))
	}
}

func TestTraceRecordsSpansAndDecisions(t *testing.T) {
	tr := NewTrace("s1", "SELECT 1")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatalf("trace not round-tripped through context")
	}
	sp := tr.StartSpan("stage:result")
	sp.AddRows(5)
	sp.AddTasks(2)
	time.Sleep(time.Millisecond)
	sp.End()
	tr.AddTask()
	tr.AddFetch(128)
	tr.Decision("broadcast-conversion")
	tr.Finish(errors.New("boom"))
	tr.Finish(nil) // second Finish must not erase the first

	if !tr.Finished() {
		t.Fatalf("trace not finished")
	}
	if tr.Err() != "boom" {
		t.Fatalf("err = %q, want boom", tr.Err())
	}
	snap := tr.Snapshot()
	if snap.Tasks != 1 || snap.FetchCalls != 1 || snap.FetchRows != 128 {
		t.Fatalf("counters wrong: %+v", snap)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "stage:result" ||
		snap.Spans[0].Rows != 5 || snap.Spans[0].Tasks != 2 {
		t.Fatalf("spans wrong: %+v", snap.Spans)
	}
	if snap.Spans[0].Seconds <= 0 || snap.Seconds < snap.Spans[0].Seconds {
		t.Fatalf("durations wrong: %+v", snap)
	}
	if len(snap.Decisions) != 1 || snap.Decisions[0] != "broadcast-conversion" {
		t.Fatalf("decisions wrong: %v", snap.Decisions)
	}
}

func TestTraceConcurrentMutation(t *testing.T) {
	tr := NewTrace("s", "q")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				sp := tr.StartSpan("s")
				tr.AddTask()
				tr.AddFetch(1)
				tr.Decision("d")
				sp.AddRows(1)
				sp.End()
				_ = tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	if snap.Tasks != 1600 || snap.FetchRows != 1600 || len(snap.Spans) != 1600 {
		t.Fatalf("lost updates: tasks=%d bytes=%d spans=%d",
			snap.Tasks, snap.FetchRows, len(snap.Spans))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile != 0")
	}
	// 100 observations of 1ms, 10 of 1s: p50 lands in the ms range,
	// p99 in the ~1s bucket.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Second)
	}
	if h.Count() != 110 {
		t.Fatalf("count = %d", h.Count())
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 <= 0 || p50 > 0.01 {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if p99 < 0.4 || p99 > 2 {
		t.Fatalf("p99 = %v, want ~1s", p99)
	}
	if got := h.Sum(); got < 10*time.Second || got > 11*time.Second {
		t.Fatalf("sum = %v", got)
	}
}

func TestRegistryPromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("shark_tasks_total", "tasks launched", func() float64 { return 42 })
	r.Gauge("shark_backlog", "queued tasks", func() float64 { return 3 })
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond)
	h.Observe(2 * time.Second)
	r.Histogram("shark_stmt_seconds", "statement latency", h)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP shark_tasks_total tasks launched",
		"# TYPE shark_tasks_total counter",
		"shark_tasks_total 42",
		"# TYPE shark_backlog gauge",
		"shark_backlog 3",
		"# TYPE shark_stmt_seconds histogram",
		`shark_stmt_seconds_bucket{le="0.001"} 1`,
		`shark_stmt_seconds_bucket{le="0.01"} 1`,
		`shark_stmt_seconds_bucket{le="+Inf"} 2`,
		"shark_stmt_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Each metric family declares HELP before TYPE before samples, and
	// families are sorted by name.
	if strings.Index(out, "shark_backlog") > strings.Index(out, "shark_stmt_seconds") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestQueryLogRingAndThreshold(t *testing.T) {
	l := NewQueryLog(3, 0)
	for i, q := range []string{"q1", "q2", "q3", "q4", "q5"} {
		tr := NewTrace("s", q)
		tr.Finish(nil)
		l.Record(tr)
		if got := len(l.Snapshot()); got != min(i+1, 3) {
			t.Fatalf("after %d records, len = %d", i+1, got)
		}
	}
	snaps := l.Snapshot()
	if snaps[0].SQL != "q5" || snaps[1].SQL != "q4" || snaps[2].SQL != "q3" {
		t.Fatalf("ring order wrong: %v", snaps)
	}

	slow := NewQueryLog(8, time.Hour)
	tr := NewTrace("s", "fast")
	tr.Finish(nil)
	slow.Record(tr)
	if len(slow.Snapshot()) != 0 {
		t.Fatalf("fast statement admitted past slow threshold")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("shark_x_total", "x", func() float64 { return 1 })
	qlog := NewQueryLog(4, 0)
	tr := NewTrace("s1", "SELECT 1")
	tr.Finish(nil)
	qlog.Record(tr)
	srv := httptest.NewServer(Handler(reg, qlog))
	defer srv.Close()

	body := httpGet(t, srv.URL+"/metrics")
	if !strings.Contains(body, "shark_x_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	var snaps []TraceSnapshot
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/queries")), &snaps); err != nil {
		t.Fatalf("/queries not JSON: %v", err)
	}
	if len(snaps) != 1 || snaps[0].SQL != "SELECT 1" {
		t.Fatalf("/queries wrong payload: %v", snaps)
	}
	if body := httpGet(t, srv.URL+"/debug/pprof/cmdline"); body == "" {
		t.Fatalf("/debug/pprof/cmdline empty")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return string(body)
}
