package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsDirectChildrenOnly(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "point", Start: at(0), End: at(100), Parent: -1},   // 0
		{Name: "build", Start: at(0), End: at(40), Parent: 0},     // 1
		{Name: "ff.run", Start: at(5), End: at(35), Parent: 1},    // 2: grandchild of 0
		{Name: "ooo.run", Start: at(40), End: at(90), Parent: 0},  // 3
		{Name: "point", Start: at(100), End: at(110), Parent: -1}, // 4
		{Name: "ooo.run", Start: at(100), End: at(108), Parent: 4},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string]struct {
		count       int
		total, self time.Duration
	}{
		"point":   {2, 110 * time.Millisecond, (100 - 40 - 50 + 10 - 8) * time.Millisecond},
		"build":   {1, 40 * time.Millisecond, 10 * time.Millisecond},
		"ff.run":  {1, 30 * time.Millisecond, 30 * time.Millisecond},
		"ooo.run": {2, 58 * time.Millisecond, 58 * time.Millisecond},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.count || g.Total != w.total || g.Self != w.self {
			t.Errorf("%s = %+v, want count %d total %v self %v", name, g, w.count, w.total, w.self)
		}
	}
	// Self times partition the root spans' wall time.
	var self time.Duration
	for _, lt := range got {
		self += lt.Self
	}
	if self != 110*time.Millisecond {
		t.Errorf("self times sum to %v, want the 110ms the roots cover", self)
	}
	if lts := selfTimes(spans); lts[0].Name != "ooo.run" {
		t.Errorf("largest self time %s, want ooo.run", lts[0].Name)
	}
	if d := selfOf(selfTimes(spans), "missing"); d != 0 {
		t.Errorf("selfOf(missing) = %v", d)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := &tracer{}
	tr.do("outer", -1, "req-1", func(id int) {
		tr.do("inner", id, "req-1", func(int) { time.Sleep(time.Millisecond) })
	})
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans", len(tr.spans))
	}
	outer, inner := tr.spans[0], tr.spans[1]
	if inner.Parent != 0 || outer.Parent != -1 || inner.ReqID != "req-1" {
		t.Errorf("spans %+v", tr.spans)
	}
	if inner.Start.Before(outer.Start) || inner.End.After(outer.End) || inner.dur() < time.Millisecond {
		t.Errorf("inner span %v..%v not inside outer %v..%v", inner.Start, inner.End, outer.Start, outer.End)
	}
}

func TestEncodeSpansWritesOneLinePerSpan(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(100, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "job.program", Start: at(2), End: at(9), Parent: -1, ReqID: "j1"},
		{Name: "service.submit", Start: at(2), End: at(4), Parent: 0},
		{Name: "job.warm", Start: at(1), End: at(3), Parent: -1, ReqID: "j2"}, // began first
	}
	var buf bytes.Buffer
	if err := encodeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(spans) {
		t.Fatalf("%d lines for %d spans:\n%s", len(lines), len(spans), buf.String())
	}
	want := []spanRecord{
		{ID: 0, Name: "job.program", Start: 1e6, End: 8e6, Parent: -1, ReqID: "j1"},
		{ID: 1, Name: "service.submit", Start: 1e6, End: 3e6, Parent: 0},
		{ID: 2, Name: "job.warm", Start: 0, End: 2e6, Parent: -1, ReqID: "j2"},
	}
	for i, line := range lines {
		var got spanRecord
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != want[i] {
			t.Errorf("line %d = %+v, want %+v", i, got, want[i])
		}
	}
}
