package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call in a traced run. Parent is the index of the
// enclosing span in the tracer, or -1 for a root.
type span struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int
	ReqID  string
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps every span of a run in memory; writeSpans writes them out
// when the run ends. It is safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index, to be passed to end.
func (t *tracer) begin(name string, parent int, reqID string) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, ReqID: reqID})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, reqID string, fn func(id int)) {
	id := t.begin(name, parent, reqID)
	fn(id)
	t.end(id)
}

// layerTime is the summed total and self time of every span of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums, per span name, the spans' durations and their self
// times: a span's duration minus the durations of its direct children.
// The result is sorted by self time, largest first.
func selfTimes(spans []span) []layerTime {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	by := map[string]*layerTime{}
	var order []string
	for i, s := range spans {
		lt, ok := by[s.Name]
		if !ok {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
			order = append(order, s.Name)
		}
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - child[i]
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// selfOf returns the summed self time of the spans named name.
func selfOf(lts []layerTime, name string) time.Duration {
	for _, lt := range lts {
		if lt.Name == name {
			return lt.Self
		}
	}
	return 0
}

// spanRecord is one span as the trace file holds it: ID is the span's index
// (what Parent refers to) and times are nanoseconds since the earliest span
// of the run began.
type spanRecord struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ReqID  string `json:"req_id,omitempty"`
}

// encodeSpans writes spans as JSON lines, one span a line, in index order.
func encodeSpans(w io.Writer, spans []span) error {
	var t0 time.Time
	for i, s := range spans {
		if i == 0 || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := spanRecord{ID: i, Name: s.Name, Start: int64(s.Start.Sub(t0)), End: int64(s.End.Sub(t0)),
			Parent: s.Parent, ReqID: s.ReqID}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// writeSpans writes a traced run's spans to spans-<workload>-<seed>.jsonl in
// the work directory, after the run, so writing costs the run nothing.
func writeSpans(cfg config, rep *report, tr *tracer) {
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	err := os.MkdirAll(cfg.workdir, 0o755)
	var f *os.File
	if err == nil {
		f, err = os.Create(path)
	}
	if err == nil {
		w := bufio.NewWriter(f)
		err = encodeSpans(w, tr.spans)
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		rep.fail("writing spans: %v", err)
		return
	}
	rep.notef("spans: %d written to %s", len(tr.spans), path)
}
