// Package obs is Shark's observability layer: per-statement traces
// (timed spans over the statement lifecycle, per-operator counters,
// PDE decisions), latency histograms, a Prometheus-text metrics
// registry, a ring-buffer slow-query log, and the HTTP handler that
// serves all of it on shark-server's -obs-addr sidecar listener.
//
// The package is a leaf: it imports only the standard library, so any
// layer (rdd, exec, core, server) can record into it without import
// cycles. Everything is built for a zero-cost disabled path — every
// method on *Trace and *Span is nil-receiver safe, so code holding no
// trace pays one nil check and no allocation.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Trace records one statement's execution: timed spans for each
// lifecycle phase (parse → plan → stages → collect), task and shuffle
// fetch counters, and the adaptive-execution decisions taken. A Trace
// travels on the statement's context (WithTrace / FromContext); a nil
// *Trace is the tracing-off fast path and absorbs every call.
type Trace struct {
	// SQL and Session identify the statement; set at creation,
	// immutable afterwards.
	SQL     string
	Session string

	start time.Time
	// endNS is the statement wall time in nanoseconds once Finish has
	// run (0 while the statement is still executing).
	endNS atomic.Int64

	// Tasks counts cluster task launches attributed to the statement;
	// FetchCalls / FetchRows count reduce-side shuffle bucket reads
	// and the rows they returned.
	Tasks      atomic.Int64
	FetchCalls atomic.Int64
	FetchRows  atomic.Int64

	// mu guards spans, decisions and errMsg.
	mu        sync.Mutex
	spans     []*Span
	decisions []string
	errMsg    string
}

// Span is one timed segment of a trace. Ended spans are immutable;
// the counters may be bumped concurrently while the span is open.
type Span struct {
	Name  string
	start time.Time
	// durNS is the span duration in nanoseconds once End has run.
	durNS atomic.Int64
	// Rows / Bytes / Tasks count whatever the span's recorder chooses
	// to attribute to the segment (stage tasks, fetched bytes, ...).
	Rows  atomic.Int64
	Bytes atomic.Int64
	Tasks atomic.Int64
}

// NewTrace opens a trace for one statement.
func NewTrace(session, sql string) *Trace {
	return &Trace{SQL: sql, Session: session, start: time.Now()}
}

// StartSpan opens a named span; End the returned span to record its
// duration. On a nil trace it returns nil, which every Span method
// accepts.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{Name: name, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// End closes the span. Safe on nil; later Ends win (last write).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.durNS.Store(int64(time.Since(s.start)))
}

// AddRows attributes n rows to the span.
func (s *Span) AddRows(n int64) {
	if s == nil {
		return
	}
	s.Rows.Add(n)
}

// AddBytes attributes n bytes to the span.
func (s *Span) AddBytes(n int64) {
	if s == nil {
		return
	}
	s.Bytes.Add(n)
}

// AddTasks attributes n task launches to the span.
func (s *Span) AddTasks(n int64) {
	if s == nil {
		return
	}
	s.Tasks.Add(n)
}

// AddTask counts one cluster task launch on the trace.
func (t *Trace) AddTask() {
	if t == nil {
		return
	}
	t.Tasks.Add(1)
}

// AddFetch counts one shuffle bucket read returning n rows.
func (t *Trace) AddFetch(n int64) {
	if t == nil {
		return
	}
	t.FetchCalls.Add(1)
	t.FetchRows.Add(n)
}

// Decision records one adaptive-execution (PDE) plan decision, e.g.
// "broadcast-conversion" or "skew-split x3".
func (t *Trace) Decision(msg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.decisions = append(t.decisions, msg)
	t.mu.Unlock()
}

// Finish closes the trace with the statement's outcome. Only the
// first Finish records; later calls are no-ops.
func (t *Trace) Finish(err error) {
	if t == nil {
		return
	}
	if !t.endNS.CompareAndSwap(0, int64(time.Since(t.start))) {
		return
	}
	if err != nil {
		t.mu.Lock()
		t.errMsg = err.Error()
		t.mu.Unlock()
	}
}

// Finished reports whether Finish has run.
func (t *Trace) Finished() bool {
	return t != nil && t.endNS.Load() != 0
}

// Duration is the statement wall time: final once finished, live
// (time since start) while running, 0 on a nil trace.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	if ns := t.endNS.Load(); ns != 0 {
		return time.Duration(ns)
	}
	return time.Since(t.start)
}

// Err returns the recorded statement error message ("" for success or
// a still-running statement).
func (t *Trace) Err() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.errMsg
}

// SpanSnapshot is a Span frozen for display / JSON.
type SpanSnapshot struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Rows    int64   `json:"rows,omitempty"`
	Bytes   int64   `json:"bytes,omitempty"`
	Tasks   int64   `json:"tasks,omitempty"`
}

// TraceSnapshot is a Trace frozen for display / JSON (the /queries
// payload element).
type TraceSnapshot struct {
	Session    string         `json:"session"`
	SQL        string         `json:"sql"`
	Start      time.Time      `json:"start"`
	Seconds    float64        `json:"seconds"`
	Error      string         `json:"error,omitempty"`
	Tasks      int64          `json:"tasks"`
	FetchCalls int64          `json:"shuffle_fetch_calls"`
	FetchRows  int64          `json:"shuffle_fetch_rows"`
	Decisions  []string       `json:"pde_decisions,omitempty"`
	Spans      []SpanSnapshot `json:"spans,omitempty"`
}

// Snapshot freezes the trace's current state. Safe on nil (zero
// snapshot) and on live traces (open spans report their elapsed time
// so far).
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	decisions := append([]string(nil), t.decisions...)
	errMsg := t.errMsg
	t.mu.Unlock()
	snap := TraceSnapshot{
		Session:    t.Session,
		SQL:        t.SQL,
		Start:      t.start,
		Seconds:    t.Duration().Seconds(),
		Error:      errMsg,
		Tasks:      t.Tasks.Load(),
		FetchCalls: t.FetchCalls.Load(),
		FetchRows:  t.FetchRows.Load(),
		Decisions:  decisions,
	}
	// Exact length: the query log retains every snapshot, so slack
	// capacity from append growth would be held for the log's lifetime.
	if len(spans) > 0 {
		snap.Spans = make([]SpanSnapshot, len(spans))
	}
	for i, s := range spans {
		d := time.Duration(s.durNS.Load())
		if d == 0 {
			d = time.Since(s.start)
		}
		snap.Spans[i] = SpanSnapshot{
			Name:    s.Name,
			Seconds: d.Seconds(),
			Rows:    s.Rows.Load(),
			Bytes:   s.Bytes.Load(),
			Tasks:   s.Tasks.Load(),
		}
	}
	return snap
}

// traceCtxKey carries a *Trace through a context.Context.
type traceCtxKey struct{}

// WithTrace attaches a trace to ctx; instrumented layers below find
// it with FromContext.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// FromContext extracts the trace attached by WithTrace, or nil (the
// tracing-off fast path).
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}
