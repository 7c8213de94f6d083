package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of
// one statement share stmt; parent is the index of the enclosing span
// (-1 at the top).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Stmt    int64  `json:"stmt"`
	Session string `json:"session,omitempty"`
	Rows    int64  `json:"rows,omitempty"`
}

// stmtSpan names the top-level span of one statement sent to the
// server, from the driver call to the end of its result.
const stmtSpan = "client.stmt"

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced run shares the traced run's code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	stmts int64
	// phases holds the wall-clock interval of each traced phase.
	phases [][2]time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin and finish mark the start and end of one traced phase.
func (t *tracer) begin() { t.phases = append(t.phases, [2]time.Time{time.Now(), time.Now()}) }

func (t *tracer) finish() { t.phases[len(t.phases)-1][1] = time.Now() }

// during reports whether at falls inside a traced phase.
func (t *tracer) during(at time.Time) bool {
	for _, p := range t.phases {
		if !at.Before(p[0]) && !at.After(p[1]) {
			return true
		}
	}
	return false
}

// statement opens the top-level span of a new statement sent on the
// server session sess, and returns its index (-1 when t is nil).
func (t *tracer) statement(sess string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stmts++
	t.spans = append(t.spans, span{Name: stmtSpan, Start: now, End: -1, Parent: -1, Stmt: t.stmts, Session: sess})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// fetch records, under statement span parent, the client's row
// fetching: from the first row (first after the statement began) to
// the end of the result (total), and the rows read.
func (t *tracer) fetch(parent int, first, total time.Duration, rows int) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: "driver.fetch", Start: p.Start + first.Nanoseconds(),
		End: p.Start + total.Nanoseconds(), Parent: parent, Stmt: p.Stmt, Rows: int64(rows)})
}

// rowsIn sums the rows of every span named name.
func (t *tracer) rowsIn(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, s := range t.spans {
		if s.Name == name {
			n += s.Rows
		}
	}
	return n
}

// closed returns every closed span named name, in start order.
func (t *tracer) closed(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
