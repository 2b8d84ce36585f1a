package prisim

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"prisim/internal/ooo"
	"prisim/internal/workloads"
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
	// badMachine simulates a custom machine the pipeline cannot run, which
	// must fail up front instead of panicking inside the run.
	badMachine := func(edit func(*ooo.Config)) func() error {
		return func() error {
			cfg := ooo.Width4()
			edit(&cfg)
			data, err := json.Marshal(cfg)
			if err != nil {
				return err
			}
			_, err = eng.Simulate(ctx, Options{Benchmark: "gzip", MachineJSON: data})
			return err
		}
	}
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
		{"machine with ROB 0", badMachine(func(c *ooo.Config) { c.ROBSize = 0 }), ErrInvalidOptions},
		{"machine with LSQ 0", badMachine(func(c *ooo.Config) { c.LSQSize = 0 }), ErrInvalidOptions},
		{"machine with no integer ALUs", badMachine(func(c *ooo.Config) { c.FUCount[0] = 0 }), ErrInvalidOptions},
		{"machine with IntPRs 16", badMachine(func(c *ooo.Config) { c.Rename.IntPRs = 16 }), ErrInvalidOptions},
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
	// Every request counts, however it was served: each goroutine made
	// 3 passes over the points.
	if want := 3 * goroutines * len(points); last != [2]int{want, want} {
		t.Errorf("final progress = %d/%d, want %d/%d", last[0], last[1], want, want)
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
	// Feeding the JSON back selects the same machine.
	eng := fastEngine()
	res, err := eng.Simulate(context.Background(), Options{Benchmark: "gzip", MachineJSON: data, Policy: PolicyPRI, PhysRegs: 48})
	if err != nil {
		t.Fatal(err)
	}
	if res.IntPRs != 48 {
		t.Errorf("IntPRs = %d, want 48", res.IntPRs)
	}
}

// TestMachineJSONCached checks that a custom machine goes through the run
// cache and the snapshot path like a Table 1 point: the result equals an
// uncached run from instruction 0, a repeat is a hit, and machines that
// differ in any field are distinct entries.
func TestMachineJSONCached(t *testing.T) {
	ctx := context.Background()
	machine := func(edit func(*ooo.Config)) []byte {
		cfg := ooo.Width4()
		cfg.ROBSize = 128
		cfg.Mem.DL1.Ways = 2
		cfg.Mem.MSHRs = 4
		cfg.Bpred.HistoryBits = 8
		edit(&cfg)
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// A Table 1 point first, so a snapshot keyed on too few fields would
	// hand the custom machine the Table 1 warm state.
	eng := NewEngine(WithBudget(3000, 6000))
	o := Options{Benchmark: "mcf", Policy: PolicyPRI}
	if _, err := eng.Simulate(ctx, o); err != nil {
		t.Fatal(err)
	}
	o.MachineJSON = machine(func(*ooo.Config) {})
	got, err := eng.Simulate(ctx, o)
	if err != nil {
		t.Fatal(err)
	}

	cfg, err := machineFor(o)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloads.ByName("mcf")
	uncached, _, err := runProgram(ctx, cfg, w.Build(0), false, budget{3000, 6000}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := *uncached
	want.Benchmark = "mcf"
	if got != want {
		t.Errorf("cached MachineJSON point differs from an uncached run:\n got %+v\nwant %+v", got, want)
	}

	again, err := eng.Simulate(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); again != got || cs.Executed != 2 || cs.Hits != 1 {
		t.Errorf("repeat: equal %v, CacheStats %+v, want a hit on 2 executions", again == got, cs)
	}

	// No registry grid varies ROBSize or SchedSize; each still names a
	// distinct point.
	for _, edit := range []func(*ooo.Config){
		func(c *ooo.Config) { c.ROBSize = 256 },
		func(c *ooo.Config) { c.SchedSize = 16 },
	} {
		o.MachineJSON = machine(edit)
		if _, err := eng.Simulate(ctx, o); err != nil {
			t.Fatal(err)
		}
	}
	// The three custom machines share one memory and predictor
	// configuration, so one fast-forward snapshot serves them.
	if cs := eng.CacheStats(); cs.Executed != 4 || cs.SnapshotBuilds != 2 {
		t.Errorf("CacheStats = %+v, want 4 executions on 2 snapshot builds", cs)
	}
}

// TestPanickingPointLeavesNoFlight checks that a point whose run panics
// leaves no in-flight cache entry behind: the repeat panics again instead
// of waiting forever, and a later Simulate of the point runs normally.
func TestPanickingPointLeavesNoFlight(t *testing.T) {
	eng := fastEngine()
	w, _ := workloads.ByName("gzip")
	key := runKey{w.Name, ooo.Width4(), eng.budget}
	do := func() (p any) {
		defer func() { p = recover() }()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := eng.s.runs.do(ctx, key, func() (*Result, error) { panic("point panicked") })
		return err
	}
	for i := 0; i < 2; i++ {
		if p := do(); p != "point panicked" {
			t.Fatalf("call %d: got %v, want the run's panic", i, p)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := eng.Simulate(ctx, Options{Benchmark: "gzip"}); err != nil {
		t.Fatalf("Simulate after the panicked flights: %v", err)
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
