package prisim

import (
	"context"
	"strings"
	"testing"
)

var tiny = Options{FastForward: 500, Run: 3000}

// testEngine is shared by the facade tests, so repeated points hit its cache.
var testEngine = NewEngine()

func simulate(t *testing.T, o Options) Result {
	t.Helper()
	o.FastForward, o.Run = tiny.FastForward, tiny.Run
	res, err := testEngine.Simulate(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulateDefaults(t *testing.T) {
	res := simulate(t, Options{Benchmark: "gzip"})
	if res.IPC <= 0 || res.Committed == 0 {
		t.Errorf("empty result: %+v", res)
	}
	if res.Benchmark != "gzip" {
		t.Errorf("benchmark = %q", res.Benchmark)
	}
}

func TestSimulateAllPolicies(t *testing.T) {
	for _, pol := range Policies() {
		res := simulate(t, Options{Benchmark: "bzip2", Policy: pol, Width: 8})
		if res.IPC <= 0 {
			t.Errorf("%s: IPC %v", pol, res.IPC)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := testEngine.Simulate(context.Background(), Options{Benchmark: "nope"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := testEngine.Simulate(context.Background(), Options{Benchmark: "gzip", Policy: "bogus"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := testEngine.Simulate(context.Background(), Options{Benchmark: "gzip", Width: 6}); err == nil {
		t.Error("width 6 accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := simulate(t, Options{Benchmark: "twolf", Policy: PolicyPRI})
	b := simulate(t, Options{Benchmark: "twolf", Policy: PolicyPRI})
	if a != b {
		t.Errorf("nondeterministic simulation:\n%+v\n%+v", a, b)
	}
}

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 27 {
		t.Fatalf("have %d benchmarks, want 27", len(bs))
	}
	fp := 0
	for _, b := range bs {
		if b.Name == "" || b.Description == "" || b.PaperIPC4 <= 0 {
			t.Errorf("incomplete benchmark %+v", b)
		}
		if b.FP {
			fp++
		}
	}
	if fp != 14 {
		t.Errorf("%d fp benchmarks, want 14", fp)
	}
}

func TestExperimentAPI(t *testing.T) {
	out, err := testEngine.Experiment(context.Background(), "table1", tiny)
	if err != nil || !strings.Contains(out, "ROB") {
		t.Errorf("table1: %v\n%s", err, out)
	}
	if _, err := testEngine.Experiment(context.Background(), "nope", tiny); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentFig2(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	out, err := testEngine.Experiment(context.Background(), "fig2", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "ammp") {
		t.Errorf("fig2 output:\n%s", out)
	}
}

func TestSimulateRejectsTinyRegisterFile(t *testing.T) {
	if _, err := testEngine.Simulate(context.Background(), Options{Benchmark: "gzip", PhysRegs: 16}); err == nil {
		t.Error("16 physical registers accepted")
	}
}
