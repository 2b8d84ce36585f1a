package prisim

// One benchmark per table and figure in the paper's evaluation. Each bench
// regenerates its experiment end to end (simulating every benchmark x
// machine x policy point it needs) at a reduced per-run budget so the
// experiment engine itself is what is being measured; use cmd/priexp for full-budget
// reproduction output.
//
//	go test -bench=. -benchmem
//
// Shape notes are in EXPERIMENTS.md.

import (
	"context"
	"testing"

	"prisim/internal/core"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

// benchBudget keeps testing.B iterations affordable; experiments run every
// (benchmark, machine, policy) cell they need at this budget.
func newBenchEngine() *Engine { return NewEngine(WithBudget(2000, 6000)) }

var benchCtx = context.Background()

// rows fails the benchmark unless the driver succeeded and produced one
// table of n rows.
func rows(b *testing.B, ts []Table, err error, n int) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if len(ts) != 1 || len(ts[0].Rows) != n {
		b.Fatalf("incomplete: %d tables, want 1 of %d rows", len(ts), n)
	}
}

func BenchmarkTable1Machines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ts, _ := newBenchEngine().table1(benchCtx); ts[0].String() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2BaseIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := newBenchEngine().table2(benchCtx)
		rows(b, ts, err, 27)
	}
}

func BenchmarkFig1RegisterLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := newBenchEngine().fig1(benchCtx)
		rows(b, ts, err, 13)
	}
}

func BenchmarkFig2OperandSignificance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := newBenchEngine().fig2(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		if len(ts[0].Rows) != 13 || len(ts[1].Rows) != 14 {
			b.Fatal("fig 2 incomplete")
		}
	}
}

func BenchmarkFig8LifetimeReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := newBenchEngine().fig8(benchCtx)
		rows(b, ts, err, 13)
	}
}

func BenchmarkFig9RegisterSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := newBenchEngine().fig9(benchCtx, 4)
		rows(b, []Table{t}, err, 27)
	}
}

func BenchmarkFig10IntSpeedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := newBenchEngine().fig10(benchCtx, 4)
		rows(b, []Table{t}, err, 14)
	}
}

func BenchmarkFig11Occupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := newBenchEngine().fig11(benchCtx, 4)
		rows(b, []Table{t}, err, 13)
	}
}

func BenchmarkFig12FPSpeedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := newBenchEngine().fig12(benchCtx, 4)
		rows(b, []Table{t}, err, 15)
	}
}

func BenchmarkAblationRenameInline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := newBenchEngine().ablationRenameInline(benchCtx)
		rows(b, ts, err, 13)
	}
}

func BenchmarkAblationDisambiguation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := newBenchEngine().ablationDisambiguation(benchCtx)
		rows(b, ts, err, 13)
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (committed
// instructions per wall-clock second) on the baseline 4-wide machine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := workloads.ByName("gzip")
	prog := w.Build(0)
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		p := ooo.New(ooo.Width4(), prog)
		total += p.Run(5000)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkSchemeOverhead compares the simulator's own cost across release
// policies (the PRI machinery's bookkeeping is part of what this library
// implements, so its overhead is worth tracking).
func BenchmarkSchemeOverhead(b *testing.B) {
	w, _ := workloads.ByName("bzip2")
	prog := w.Build(0)
	for _, pol := range []core.Policy{core.PolicyBase, core.PolicyPRIRcCkpt, core.PolicyPRIPlusER} {
		b.Run(pol.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := ooo.New(ooo.Width4().WithPolicy(pol), prog)
				p.Run(5000)
			}
		})
	}
}

func BenchmarkAblationDelayedAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := newBenchEngine().ablationDelayedAllocation(benchCtx)
		rows(b, ts, err, 13)
	}
}

func BenchmarkAblationMSHR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := newBenchEngine().ablationMSHR(benchCtx)
		rows(b, ts, err, 13)
	}
}

func BenchmarkAblationPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := newBenchEngine().ablationPrefetch(benchCtx)
		rows(b, ts, err, 13)
	}
}
