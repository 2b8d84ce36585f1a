package prisimclient

import (
	"encoding/json"
	"strings"
	"testing"
)

// The v1 wire redesign is additive: every v0 field name must keep decoding
// and re-encoding unchanged, so a v0 client and a v1 server (or the
// reverse) interoperate during the alias window. The payloads below are
// verbatim recordings of v0 traffic.

const v0JobRequest = `{
  "kind": "simulate",
  "benchmark": "gzip",
  "width": 8,
  "policy": "pri-rc-ckpt",
  "phys_regs": 48,
  "rename_inline": true,
  "fast_forward": 300,
  "run": 1500
}`

const v0Job = `{
  "id": "job-7",
  "request": {"kind": "experiment", "experiment": "fig8"},
  "state": "running",
  "progress": {"done": 3, "total": 40},
  "created": "2026-08-01T12:00:00Z",
  "started": "2026-08-01T12:00:01Z",
  "finished": "0001-01-01T00:00:00Z"
}`

const v0JobResult = `{
  "id": "job-3",
  "result": {"Benchmark": "gzip", "IPC": 1.234, "Committed": 1500}
}`

func TestV0JobRequestRoundTrip(t *testing.T) {
	var req JobRequest
	if err := json.Unmarshal([]byte(v0JobRequest), &req); err != nil {
		t.Fatal(err)
	}
	if req.Kind != KindSimulate || req.Benchmark != "gzip" || req.Width != 8 ||
		req.Policy != "pri-rc-ckpt" || req.PhysRegs != 48 || !req.RenameInline ||
		req.FastForward != 300 || req.Run != 1500 {
		t.Fatalf("v0 request decoded wrong: %+v", req)
	}
	out, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// Every v0 field name survives re-encoding, and the new optional field
	// stays absent when unset (a v0 server never sees it).
	for _, name := range []string{`"kind"`, `"benchmark"`, `"width"`, `"policy"`, `"phys_regs"`, `"rename_inline"`, `"fast_forward"`, `"run"`} {
		if !strings.Contains(string(out), name) {
			t.Errorf("re-encoded request lost v0 field %s: %s", name, out)
		}
	}
	if strings.Contains(string(out), "cache_key") {
		t.Errorf("unset cache_key must not appear on the wire: %s", out)
	}
}

func TestV0JobDecodes(t *testing.T) {
	var j Job
	if err := json.Unmarshal([]byte(v0Job), &j); err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-7" || j.State != StateRunning || j.Progress.Done != 3 || j.Progress.Total != 40 {
		t.Fatalf("v0 job decoded wrong: %+v", j)
	}
	if j.Request.Kind != KindExperiment || j.Request.Experiment != "fig8" {
		t.Fatalf("v0 nested request decoded wrong: %+v", j.Request)
	}
	// v1 additions default to empty on v0 payloads.
	if j.KernelVersion != "" || j.CacheKey != "" || j.ComputedBy != "" {
		t.Errorf("v1 fields must be zero on a v0 payload: %+v", j)
	}
}

func TestV0JobResultDecodes(t *testing.T) {
	var r JobResult
	if err := json.Unmarshal([]byte(v0JobResult), &r); err != nil {
		t.Fatal(err)
	}
	if r.ID != "job-3" || r.Result == nil || r.Result.IPC != 1.234 || r.Result.Committed != 1500 {
		t.Fatalf("v0 result decoded wrong: %+v", r)
	}
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"id"`, `"result"`} {
		if !strings.Contains(string(out), name) {
			t.Errorf("re-encoded result lost v0 field %s: %s", name, out)
		}
	}
}

// The payloads below are verbatim recordings of pre-priscan v1 traffic
// (the program-job wire surface as it shipped): the Warnings,
// Inlinability, Analyzer, Severity, and Addr additions must decode them
// unchanged and stay off the wire when unset.

const preLintProgramInfo = `{
  "sha256": "3f786850e387550fdab836ed7e6dc881de23001b1a6e1b4c1b5e9f1f8e2a0b3c",
  "entry": 65536,
  "code_words": 21,
  "data_segments": 2,
  "data_bytes": 24
}`

const preLintDiagnostic = `{
  "file": "program.s",
  "line": 2,
  "col": 8,
  "msg": "unknown register r99",
  "excerpt": "  addi r1, r99, 1"
}`

func TestPreLintProgramInfoDecodes(t *testing.T) {
	var info ProgramInfo
	if err := json.Unmarshal([]byte(preLintProgramInfo), &info); err != nil {
		t.Fatal(err)
	}
	if info.Entry != 65536 || info.CodeWords != 21 || info.DataSegments != 2 || info.DataBytes != 24 {
		t.Fatalf("pre-lint program info decoded wrong: %+v", info)
	}
	if info.Warnings != nil || info.Inlinability != nil {
		t.Errorf("lint fields must be zero on a pre-lint payload: %+v", info)
	}
	out, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"sha256"`, `"entry"`, `"code_words"`, `"data_segments"`, `"data_bytes"`} {
		if !strings.Contains(string(out), name) {
			t.Errorf("re-encoded info lost field %s: %s", name, out)
		}
	}
	for _, name := range []string{"warnings", "inlinability"} {
		if strings.Contains(string(out), name) {
			t.Errorf("unset %s must not appear on the wire: %s", name, out)
		}
	}
}

func TestPreLintDiagnosticDecodes(t *testing.T) {
	var d Diagnostic
	if err := json.Unmarshal([]byte(preLintDiagnostic), &d); err != nil {
		t.Fatal(err)
	}
	if d.File != "program.s" || d.Line != 2 || d.Col != 8 || d.Msg != "unknown register r99" {
		t.Fatalf("pre-lint diagnostic decoded wrong: %+v", d)
	}
	if d.Analyzer != "" || d.Severity != "" || d.Addr != 0 {
		t.Errorf("analysis fields must be zero on a pre-lint payload: %+v", d)
	}
	// An assembler diagnostic (no severity) renders exactly as before the
	// analysis fields existed.
	if got := d.String(); !strings.HasPrefix(got, "program.s:2:8: unknown register r99") {
		t.Errorf("pre-lint rendering changed: %q", got)
	}
	out, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"analyzer", "severity", "addr"} {
		if strings.Contains(string(out), name) {
			t.Errorf("unset %s must not appear on the wire: %s", name, out)
		}
	}
}

func TestPreLintJobDecodes(t *testing.T) {
	// A pre-lint job payload has no warnings array; the field must decode
	// to nil and stay off the wire on re-encode.
	var j Job
	if err := json.Unmarshal([]byte(v0Job), &j); err != nil {
		t.Fatal(err)
	}
	if j.Warnings != nil {
		t.Errorf("warnings must be nil on a pre-lint payload: %+v", j.Warnings)
	}
	out, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "warnings") {
		t.Errorf("unset warnings must not appear on the wire: %s", out)
	}
}

func TestCacheKeyForNormalizesDefaults(t *testing.T) {
	// A defaulted request and its explicit-default spelling are the same
	// point, so they must hash identically; the key must be sensitive to
	// the kernel version and to every hashed dimension.
	a := JobRequest{Kind: KindSimulate, Benchmark: "gzip"}
	b := JobRequest{Kind: KindSimulate, Benchmark: "gzip", Width: 4, Policy: "base", FastForward: 20_000, Run: 80_000}
	if CacheKeyFor("v1", a) != CacheKeyFor("v1", b) {
		t.Error("defaulted and explicit-default requests must share a cache key")
	}
	if CacheKeyFor("v1", a) == CacheKeyFor("v2", a) {
		t.Error("kernel version must change the cache key")
	}
	c := a
	c.PhysRegs = 48
	if CacheKeyFor("v1", a) == CacheKeyFor("v1", c) {
		t.Error("phys_regs must change the cache key")
	}
}

// TestCacheKeyBytesPinned fixes the exact hex of both content-hash schemas.
// Every durable store log is addressed by these bytes: a change to the
// field list, order, spelling or default handling would make every stored
// result miss, which no equality test catches. The kernel version is a
// literal so a version bump does not move the pins.
func TestCacheKeyBytesPinned(t *testing.T) {
	const kernel = "v0.4.0-dev"
	sim := []struct {
		name string
		req  JobRequest
		want string
	}{
		{"defaulted", JobRequest{Benchmark: "gzip"},
			"6bc011fa70c26d4b0e977a11a183940bd31b395c98fe6420c076fcd60f696a64"},
		{"explicit defaults", JobRequest{Benchmark: "gzip", Width: 4, Policy: "base", FastForward: 20_000, Run: 80_000},
			"6bc011fa70c26d4b0e977a11a183940bd31b395c98fe6420c076fcd60f696a64"},
		{"rename_inline", JobRequest{Benchmark: "gzip", RenameInline: true},
			"452a19343efc902124c1c00851e0435b20611e46461b548cdb7922be8c0f809d"},
		{"delayed_alloc", JobRequest{Benchmark: "gzip", DelayedAllocation: true},
			"454a5699a5043588461d8c981fb67ec71520e9e24c49a52a56b34988135c290e"},
		{"phys_regs", JobRequest{Benchmark: "gzip", PhysRegs: 48},
			"10c62ac059ab00552ee80a2b50faa7ad0857776c8d1a0c3729c578f109101bc3"},
		{"every field", JobRequest{Benchmark: "mcf", Width: 8, Policy: "pri-rc-ckpt", PhysRegs: 96,
			RenameInline: true, DelayedAllocation: true, FastForward: 2000, Run: 8000},
			"d627d6250f84a5394e49d2fd6331cca0c826cb42301cabd7e770b8833dd74840"},
	}
	for _, c := range sim {
		c.req.Kind = KindSimulate
		if got := CacheKeyFor(kernel, c.req); got != c.want {
			t.Errorf("CacheKeyFor(%s) = %s, want %s", c.name, got, c.want)
		}
	}

	const image = "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	prog := []struct {
		name string
		req  JobRequest
		want string
	}{
		{"defaulted", JobRequest{},
			"d0f55cbf78927bffc3dc31e72484c8f7d33e26cab4fee441553bedbe086c61c4"},
		{"explicit defaults", JobRequest{Width: 4, Policy: "base"},
			"d0f55cbf78927bffc3dc31e72484c8f7d33e26cab4fee441553bedbe086c61c4"},
		{"rename_inline", JobRequest{RenameInline: true},
			"6d7dfcf9fa948501c9c56520d344d64205e38a9adde225539a21c136f5213416"},
		{"delayed_alloc", JobRequest{DelayedAllocation: true},
			"780bcb5752dc1972a1b03d2778896c4fe25ac88936e72af2a61c4b2fd83477d4"},
		{"phys_regs", JobRequest{PhysRegs: 48},
			"dc25c866b4a3cab2e7d27da52e3603f17bb3f408ef017f3a1f0e7670cb15d7dd"},
		// A program budget hashes verbatim: the simulate defaults are a
		// different key from the zero budget.
		{"budget verbatim", JobRequest{FastForward: 20_000, Run: 80_000},
			"0804c11bffc5fe283bd0b5af8a2574b862481b128ed404430e893bfcd5c09bff"},
		{"every field", JobRequest{Width: 8, Policy: "er", PhysRegs: 40, FastForward: 100, Run: 5000},
			"a1a14e8f6554f64874acdc03eb5b64c91e715d7d9dc59f4a6465f9153204d103"},
	}
	for _, c := range prog {
		c.req.Kind = KindProgram
		if got := CacheKeyForProgram(kernel, image, c.req); got != c.want {
			t.Errorf("CacheKeyForProgram(%s) = %s, want %s", c.name, got, c.want)
		}
	}
}
