package prisim

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastOpts keeps Engine tests quick; shapes, not paper numbers, are asserted.
func fastEngine(extra ...EngineOption) *Engine {
	return NewEngine(append([]EngineOption{WithBudget(500, 4000)}, extra...)...)
}

func TestEngineSimulate(t *testing.T) {
	eng := fastEngine()
	res, err := eng.Simulate(context.Background(), Options{Benchmark: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "gzip" || res.IPC <= 0 || res.Committed == 0 {
		t.Errorf("bad result: %+v", res)
	}
	if res.Machine == "" || res.IntPRs == 0 {
		t.Errorf("machine fields unset: %q, %d PRs", res.Machine, res.IntPRs)
	}
	// Second call is a cache hit: no new simulation.
	if _, err := eng.Simulate(context.Background(), Options{Benchmark: "gzip"}); err != nil {
		t.Fatal(err)
	}
	if got := eng.RunsExecuted(); got != 1 {
		t.Errorf("RunsExecuted = %d, want 1", got)
	}
}

func TestEngineErrorSentinels(t *testing.T) {
	eng := fastEngine()
	ctx := context.Background()
	cases := []struct {
		name string
		do   func() error
		want error
	}{
		{"unknown benchmark", func() error {
			_, err := eng.Simulate(ctx, Options{Benchmark: "quake3"})
			return err
		}, ErrUnknownBenchmark},
		{"unknown policy", func() error {
			_, err := eng.Simulate(ctx, Options{Benchmark: "gzip", Policy: "magic"})
			return err
		}, ErrUnknownPolicy},
		{"bad width", func() error {
			_, err := eng.Simulate(ctx, Options{Benchmark: "gzip", Width: 6})
			return err
		}, ErrInvalidOptions},
		{"bad phys regs", func() error {
			_, err := eng.Simulate(ctx, Options{Benchmark: "gzip", PhysRegs: 8})
			return err
		}, ErrInvalidOptions},
		{"bad machine json", func() error {
			_, err := eng.Simulate(ctx, Options{Benchmark: "gzip", MachineJSON: []byte("{")})
			return err
		}, ErrInvalidOptions},
		{"unknown experiment", func() error {
			_, err := eng.Experiment(ctx, "fig99", Options{})
			return err
		}, ErrUnknownExperiment},
		{"program with benchmark set", func() error {
			p, err := Assemble(".text\nmain:\n  halt\n")
			if err != nil {
				return err
			}
			_, err = eng.SimulateProgram(ctx, p, Options{Benchmark: "gzip"})
			return err
		}, ErrInvalidOptions},
	}
	for _, tc := range cases {
		err := tc.do()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: errors.Is(%v, %v) = false", tc.name, err, tc.want)
		}
		if !strings.HasPrefix(err.Error(), "prisim: ") {
			t.Errorf("%s: error not prefixed: %v", tc.name, err)
		}
	}
}

func TestExperimentNameDispatch(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 14 || names[0] != "table1" {
		t.Fatalf("ExperimentNames() = %v", names)
	}
	eng := fastEngine()
	out, err := eng.Experiment(context.Background(), "table1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ROB") {
		t.Errorf("table1 output missing ROB:\n%s", out)
	}
	tables, err := eng.ExperimentTables(context.Background(), "fig8", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 13 {
		t.Errorf("fig8 shape: %d tables", len(tables))
	}
	if tables[0].String() == "" {
		t.Error("Table.String empty")
	}
}

func TestExperimentCancellation(t *testing.T) {
	// Pre-cancelled context fails fast without simulating.
	eng := fastEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Experiment(ctx, "fig8", Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Experiment error = %v", err)
	}
	if eng.RunsExecuted() != 0 {
		t.Error("cancelled sweep still simulated")
	}

	// Cancellation mid-sweep: large budget, cancel shortly after kickoff.
	slow := NewEngine(WithBudget(2000, 50_000))
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := slow.Experiment(ctx2, "fig8", Options{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel2()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("mid-sweep cancellation error = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sweep did not return")
	}
}

// TestEngineStress hammers one Engine from 16 goroutines mixing Simulate
// calls over a small point set and asserts singleflight deduplication:
// every distinct point simulated exactly once. Meaningful under -race.
func TestEngineStress(t *testing.T) {
	var last [2]int // progress calls are serialized under the view's lock
	eng := NewEngine(WithBudget(200, 1000)).ProgressView(func(done, total int) {
		last = [2]int{done, total}
	})
	points := []Options{
		{Benchmark: "gzip"},
		{Benchmark: "gzip", Policy: PolicyPRI},
		{Benchmark: "mcf", Width: 8},
		{Benchmark: "parser", PhysRegs: 48},
	}
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([][]Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for _, o := range points {
					res, err := eng.Simulate(context.Background(), o)
					if err != nil {
						t.Error(err)
						return
					}
					results[g] = append(results[g], res)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := eng.RunsExecuted(); got != len(points) {
		t.Errorf("RunsExecuted = %d for %d unique points under %d goroutines, want %d",
			got, len(points), goroutines, len(points))
	}
	// Every request that ran or joined a flight reported resolving, and each
	// point was requested that way at least once; requests after a point's
	// completion are instant hits and report nothing.
	if done, total := last[0], last[1]; done != total || total < len(points) || total > goroutines*len(points) {
		t.Errorf("final progress = %d/%d, want done == total in [%d, %d]",
			done, total, len(points), goroutines*len(points))
	}
	// All goroutines observed identical values for identical points.
	for g := 1; g < goroutines; g++ {
		for i, r := range results[g] {
			if r != results[0][i] {
				t.Fatalf("goroutine %d result %d diverged", g, i)
			}
		}
	}
}

// TestEngineBudget checks that Budget reports the default a zero-budget
// Simulate runs at, with unset WithBudget fields resolved.
func TestEngineBudget(t *testing.T) {
	if ff, run := NewEngine().Budget(); ff != DefaultFastForward || run != DefaultRun {
		t.Errorf("default Budget() = %d, %d, want %d, %d", ff, run, DefaultFastForward, DefaultRun)
	}
	if ff, run := NewEngine(WithBudget(0, 4000)).Budget(); ff != DefaultFastForward || run != 4000 {
		t.Errorf("WithBudget(0, 4000).Budget() = %d, %d, want %d, 4000", ff, run, DefaultFastForward)
	}
}

func TestEngineExperimentDeterminism(t *testing.T) {
	// Same experiment on a serial and a parallel Engine: byte-identical text.
	serial, err := NewEngine(WithBudget(300, 1500), WithParallelism(1)).
		Experiment(context.Background(), "fig8", Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(WithBudget(300, 1500), WithParallelism(8)).
		Experiment(context.Background(), "fig8", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if serial != par {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, par)
	}
}

func TestSimulateProgram(t *testing.T) {
	p, err := Assemble(`
.text
main:
  li r1, 72          ; 'H'
  putc r1
  li r1, 10
  putc r1
  halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Disassemble() == "" {
		t.Error("empty disassembly")
	}
	res, err := fastEngine().SimulateProgram(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "H\n" {
		t.Errorf("program output = %q, want \"H\\n\"", res.Output)
	}
	if res.Committed == 0 || res.Cycles == 0 {
		t.Errorf("empty timing result: %+v", res.Result)
	}
}

func TestMachineJSONRoundTrip(t *testing.T) {
	data, err := MachineJSON(Options{Policy: PolicyPRI, PhysRegs: 48})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "48") {
		t.Errorf("machine JSON missing PR count:\n%s", data)
	}
	// Feeding the JSON back selects the same machine (uncached path).
	eng := fastEngine()
	res, err := eng.Simulate(context.Background(), Options{Benchmark: "gzip", MachineJSON: data, Policy: PolicyPRI, PhysRegs: 48})
	if err != nil {
		t.Fatal(err)
	}
	if res.IntPRs != 48 {
		t.Errorf("IntPRs = %d, want 48", res.IntPRs)
	}
}

// TestSimulatePastHalt pins the failure of a fast-forward that reaches the
// program's halt: the run fails with ErrHalted instead of panicking on the
// pipeline's watchdog, and a budget that stops one instruction short still
// measures the HALT itself.
func TestSimulatePastHalt(t *testing.T) {
	ctx := context.Background()
	eng := fastEngine()
	// facerec halts after about 528k instructions.
	_, err := eng.Simulate(ctx, Options{Benchmark: "facerec", FastForward: 600_000, Run: 1000})
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("facerec past its halt: err = %v, want ErrHalted", err)
	}
	if !strings.Contains(err.Error(), "facerec") {
		t.Errorf("error %q does not name the benchmark", err)
	}

	p, err := Assemble(".text\nmain:\n  li r1, 72\n  putc r1\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	full, err := eng.SimulateProgram(ctx, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := full.Committed
	if _, err := eng.SimulateProgram(ctx, p, Options{FastForward: n}); !errors.Is(err, ErrHalted) {
		t.Errorf("program fast-forward %d (its length): err = %v, want ErrHalted", n, err)
	}
	res, err := eng.SimulateProgram(ctx, p, Options{FastForward: n - 1})
	if err != nil || res.Committed != 1 {
		t.Errorf("program fast-forward %d: committed %d, err %v; want the HALT alone", n-1, res.Committed, err)
	}
}
