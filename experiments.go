package prisim

import (
	"context"
	"fmt"

	"prisim/internal/core"
	"prisim/internal/emu"
	"prisim/internal/ooo"
	"prisim/internal/stats"
	"prisim/internal/workloads"
)

// The experiments that regenerate every table and figure in the paper's
// evaluation (Tables 1-2, Figures 1-2 and 8-12) plus the ablations. Each
// returns Tables whose rows mirror the series the paper plots;
// EXPERIMENTS.md records the paper-vs-measured comparison. Every driver
// declares its run matrix once as a workloads × configs grid, the Engine's
// pool simulates the grid's points concurrently, and the driver builds rows
// serially from the returned grid, so tables are byte-identical to a
// single-worker run while wall-clock scales with cores.

// machine returns the Table 1 configuration for a width.
func machine(width int) ooo.Config {
	if width == 8 {
		return ooo.Width8()
	}
	return ooo.Width4()
}

// suite returns the workloads of one class.
func suite(c workloads.Class) []workloads.Workload {
	if c == workloads.FP {
		return workloads.FloatingPoint()
	}
	return workloads.Integer()
}

// mean is the arithmetic mean the paper uses for its averages.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// experiment is one named entry of the evaluation: a table or figure of
// the paper, or one of the ablations.
type experiment struct {
	name string
	run  func(*Engine, context.Context) ([]Table, error)
}

// experiments is the registry of every experiment, in canonical order.
// ExperimentNames, ExperimentTables and WriteReport all read it.
var experiments = []experiment{
	{"table1", (*Engine).table1},
	{"table2", (*Engine).table2},
	{"fig1", (*Engine).fig1},
	{"fig2", (*Engine).fig2},
	{"fig8", (*Engine).fig8},
	{"fig9", bothWidths((*Engine).fig9)},
	{"fig10", bothWidths((*Engine).fig10)},
	{"fig11", bothWidths((*Engine).fig11)},
	{"fig12", bothWidths((*Engine).fig12)},
	{"ablation-inline", (*Engine).ablationRenameInline},
	{"ablation-mem", (*Engine).ablationDisambiguation},
	{"ablation-delayed", (*Engine).ablationDelayedAllocation},
	{"ablation-mshr", (*Engine).ablationMSHR},
	{"ablation-prefetch", (*Engine).ablationPrefetch},
}

// bothWidths lifts a per-width driver into a registry entry that renders
// the 4-wide table, then the 8-wide one.
func bothWidths(fn func(*Engine, context.Context, int) (Table, error)) func(*Engine, context.Context) ([]Table, error) {
	return func(e *Engine, ctx context.Context) ([]Table, error) {
		var ts []Table
		for _, width := range []int{4, 8} {
			t, err := fn(e, ctx, width)
			if err != nil {
				return nil, err
			}
			ts = append(ts, t)
		}
		return ts, nil
	}
}

// table1 renders the machine configurations (static; the paper's Table 1).
func (*Engine) table1(context.Context) ([]Table, error) {
	t := Table{
		Title:   "Table 1: machine configurations",
		Columns: []string{"parameter", "4-wide", "8-wide"},
	}
	c4, c8 := ooo.Width4(), ooo.Width8()
	row := func(name string, v4, v8 any) { t.Rows = append(t.Rows, []string{name, fmt.Sprint(v4), fmt.Sprint(v8)}) }
	row("fetch/issue/commit width", c4.Width, c8.Width)
	row("ROB entries", c4.ROBSize, c8.ROBSize)
	row("LSQ entries", c4.LSQSize, c8.LSQSize)
	row("scheduler entries", c4.SchedSize, c8.SchedSize)
	row("int physical registers", c4.Rename.IntPRs, c8.Rename.IntPRs)
	row("fp physical registers", c4.Rename.FPPRs, c8.Rename.FPPRs)
	row("PRI narrow bits (int)", c4.Rename.IntNarrowBits, c8.Rename.IntNarrowBits)
	row("PRI fp inlining", "all-zero/all-one patterns", "all-zero/all-one patterns")
	row("branch predictor", "bimodal4k/gshare4k + selector4k", "same")
	row("RAS / BTB", "16 / 1k 4-way", "same")
	row("IL1", "32KB 2-way 32B, 2cyc", "same")
	row("DL1", "32KB 4-way 16B, 2cyc", "same")
	row("L2", "512KB 4-way 64B, 12cyc", "same")
	row("memory latency", c4.Mem.MemLatency, c8.Mem.MemLatency)
	row("select-to-execute depth", c4.SchedToExec, c8.SchedToExec)
	return []Table{t}, nil
}

// table2 reproduces the paper's Table 2: baseline IPC for every benchmark
// on both machine widths.
func (e *Engine) table2(ctx context.Context) ([]Table, error) {
	ws := workloads.All()
	res, err := e.grid(ctx, ws, machine(4), machine(8))
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:   "Table 2: benchmark programs and baseline IPC",
		Columns: []string{"bench", "class", "IPC(4w)", "paper(4w)", "IPC(8w)", "paper(8w)"},
	}
	for i, w := range ws {
		t.Rows = append(t.Rows, []string{w.Name, w.Class.String(),
			stats.F(res[i][0].IPC, 2), stats.F(w.PaperIPC4, 2),
			stats.F(res[i][1].IPC, 2), stats.F(w.PaperIPC8, 2)})
	}
	return []Table{t}, nil
}

// lifetime is a result's total register lifetime across the three phases.
func lifetime(res *Result) float64 {
	return res.AllocToWrite + res.WriteToRead + res.ReadToRelease
}

// fig1 reproduces Figure 1: average register lifetime split into the three
// phases, per integer benchmark, on the baseline 4- and 8-wide machines.
func (e *Engine) fig1(ctx context.Context) ([]Table, error) {
	ws := suite(workloads.Int)
	res, err := e.grid(ctx, ws, machine(4), machine(8))
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Figure 1: average register lifetime (cycles) split by phase, baseline",
		Columns: []string{"bench",
			"alloc->wr(4w)", "wr->rd(4w)", "rd->rel(4w)", "total(4w)",
			"alloc->wr(8w)", "wr->rd(8w)", "rd->rel(8w)", "total(8w)"},
	}
	for i, w := range ws {
		row := []string{w.Name}
		for _, x := range res[i] {
			row = append(row, stats.F(x.AllocToWrite, 1), stats.F(x.WriteToRead, 1),
				stats.F(x.ReadToRelease, 1), stats.F(lifetime(x), 1))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// fig2 reproduces Figure 2: the cumulative distribution of operand
// significance — integer operand widths (the first table) and FP
// exponent/significand widths (the second) — measured over the functional
// instruction stream. The per-benchmark analyses are independent, so they
// fan out over the worker pool.
func (e *Engine) fig2(ctx context.Context) ([]Table, error) {
	analyze := func(ws []workloads.Workload) ([]*stats.Significance, error) {
		sigs := make([]*stats.Significance, len(ws))
		err := fanOut(len(ws), func(i int) error {
			if err := e.acquire(ctx); err != nil {
				return err
			}
			defer e.release()
			m := emu.New(ws[i].Build(0))
			m.Run(e.budget.ff)
			sigs[i] = stats.Analyze(m, e.budget.run)
			return nil
		})
		return sigs, err
	}

	intT := Table{
		Title:   "Figure 2 (top): cumulative % of integer operands representable in N bits",
		Columns: []string{"bench", "<=4", "<=7", "<=8", "<=10", "<=12", "<=16", "<=24", "<=32", "<=48", "<=64"},
	}
	widths := []int{4, 7, 8, 10, 12, 16, 24, 32, 48, 64}
	intWs := suite(workloads.Int)
	intSigs, err := analyze(intWs)
	if err != nil {
		return nil, err
	}
	for i, w := range intWs {
		row := []string{w.Name}
		for _, n := range widths {
			row = append(row, stats.Pct(intSigs[i].IntFracWithin(n)))
		}
		intT.Rows = append(intT.Rows, row)
	}

	fpT := Table{
		Title:   "Figure 2 (bottom): FP operand field significance",
		Columns: []string{"bench", "trivial(all 0/1)", "exp<=1b", "exp<=4b", "exp<=8b", "sig=0b", "sig<=16b", "sig<=32b"},
	}
	fpWs := suite(workloads.FP)
	fpSigs, err := analyze(fpWs)
	if err != nil {
		return nil, err
	}
	for i, w := range fpWs {
		s := fpSigs[i]
		fpT.Rows = append(fpT.Rows, []string{w.Name,
			stats.Pct(s.FPTrivialFrac()),
			stats.Pct(s.ExpBits.CumulativeFrac(1)),
			stats.Pct(s.ExpBits.CumulativeFrac(4)),
			stats.Pct(s.ExpBits.CumulativeFrac(8)),
			stats.Pct(s.SigBits.CumulativeFrac(0)),
			stats.Pct(s.SigBits.CumulativeFrac(16)),
			stats.Pct(s.SigBits.CumulativeFrac(32))})
	}
	return []Table{intT, fpT}, nil
}

// fig8 reproduces Figure 8: lifetime reduction under PRI and PRI+ER versus
// the baseline, integer benchmarks, both widths.
func (e *Engine) fig8(ctx context.Context) ([]Table, error) {
	var cfgs []ooo.Config
	for _, width := range []int{4, 8} {
		for _, pol := range []core.Policy{core.PolicyBase, core.PolicyPRIRcCkpt, core.PolicyPRIPlusER} {
			cfgs = append(cfgs, machine(width).WithPolicy(pol))
		}
	}
	ws := suite(workloads.Int)
	res, err := e.grid(ctx, ws, cfgs...)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Figure 8: avg register lifetime (cycles): base vs PRI(rc+ckpt) vs PRI+ER",
		Columns: []string{"bench",
			"base(4w)", "pri(4w)", "pri+er(4w)",
			"base(8w)", "pri(8w)", "pri+er(8w)"},
	}
	for i, w := range ws {
		row := []string{w.Name}
		for _, x := range res[i] {
			row = append(row, stats.F(lifetime(x), 1))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// fig9PRs is the physical register sweep of Figure 9; its first entry is
// the normalization point.
var fig9PRs = []int{40, 48, 56, 64, 72, 80, 96}

// fig9 reproduces Figure 9: baseline speedup versus register file size,
// normalized to 40 registers, for every benchmark at the given width.
func (e *Engine) fig9(ctx context.Context, width int) (Table, error) {
	cols := []string{"bench"}
	var cfgs []ooo.Config
	for _, n := range fig9PRs {
		cols = append(cols, fmt.Sprintf("PR=%d", n))
		cfgs = append(cfgs, machine(width).WithPRs(n))
	}
	ws := workloads.All()
	res, err := e.grid(ctx, ws, cfgs...)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:   fmt.Sprintf("Figure 9: register file sensitivity, %d-wide (speedup vs PR=40)", width),
		Columns: cols,
	}
	for i, w := range ws {
		row := []string{w.Name}
		for _, x := range res[i] {
			row = append(row, stats.F(x.IPC/res[i][0].IPC, 2))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// speedupTable renders Figures 10 and 12: per-benchmark IPC speedup of each
// scheme over the baseline, plus the arithmetic mean row.
func (e *Engine) speedupTable(ctx context.Context, class workloads.Class, width int, title string) (Table, error) {
	cfgs := []ooo.Config{machine(width).WithPolicy(core.PolicyBase)}
	for _, pol := range core.AllPolicies {
		cfgs = append(cfgs, machine(width).WithPolicy(pol))
	}
	ws := suite(class)
	res, err := e.grid(ctx, ws, cfgs...)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title: title,
		Columns: []string{"bench", "ER",
			"PRI-rc-ckpt", "PRI-rc-lazy", "PRI-ideal-ckpt", "PRI-ideal-lazy",
			"PRI+ER", "InfPR"},
	}
	sums := make([][]float64, len(core.AllPolicies))
	for i, w := range ws {
		row := []string{w.Name}
		for p, x := range res[i][1:] {
			sp := x.IPC / res[i][0].IPC
			sums[p] = append(sums[p], sp)
			row = append(row, stats.F(sp, 3))
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"average"}
	for _, s := range sums {
		avg = append(avg, stats.F(mean(s), 3))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// fig10 reproduces Figure 10: integer speedups for all seven schemes.
func (e *Engine) fig10(ctx context.Context, width int) (Table, error) {
	return e.speedupTable(ctx, workloads.Int, width,
		fmt.Sprintf("Figure 10: PRI speedup, integer benchmarks, %d-wide (IPC / base IPC)", width))
}

// fig12 reproduces Figure 12: floating-point speedups for all seven schemes.
func (e *Engine) fig12(ctx context.Context, width int) (Table, error) {
	return e.speedupTable(ctx, workloads.FP, width,
		fmt.Sprintf("Figure 12: PRI speedup, floating point benchmarks, %d-wide (IPC / base IPC)", width))
}

// fig11 reproduces Figure 11: average physical register file occupancy for
// base, ER, PRI, and PRI+ER on the integer benchmarks.
func (e *Engine) fig11(ctx context.Context, width int) (Table, error) {
	var cfgs []ooo.Config
	for _, pol := range []core.Policy{core.PolicyBase, core.PolicyER, core.PolicyPRIRcCkpt, core.PolicyPRIPlusER} {
		cfgs = append(cfgs, machine(width).WithPolicy(pol))
	}
	ws := suite(workloads.Int)
	res, err := e.grid(ctx, ws, cfgs...)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:   fmt.Sprintf("Figure 11: avg integer PRF occupancy, %d-wide", width),
		Columns: []string{"bench", "base", "ER", "PRI", "PRI+ER"},
	}
	for i, w := range ws {
		row := []string{w.Name}
		for _, x := range res[i] {
			row = append(row, stats.F(x.IntOccupancy, 1))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// ablationWidth is the machine width every ablation runs at.
const ablationWidth = 4

// ipcAblation renders an ablation table over the integer suite: one IPC
// column per config, headed by cols, plus — when ratio names it — a column
// of the last config's IPC over the first's.
func (e *Engine) ipcAblation(ctx context.Context, title string, cols []string, ratio string, cfgs ...ooo.Config) ([]Table, error) {
	ws := suite(workloads.Int)
	res, err := e.grid(ctx, ws, cfgs...)
	if err != nil {
		return nil, err
	}
	t := Table{Title: title, Columns: append([]string{"bench"}, cols...)}
	if ratio != "" {
		t.Columns = append(t.Columns, ratio)
	}
	for i, w := range ws {
		row := []string{w.Name}
		for _, x := range res[i] {
			row = append(row, stats.F(x.IPC, 3))
		}
		if ratio != "" {
			row = append(row, stats.F(res[i][len(cfgs)-1].IPC/res[i][0].IPC, 3))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// ablationRenameInline compares PRI with and without the Section 6
// future-work extension (rename-time inlining of narrow load-immediates).
func (e *Engine) ablationRenameInline(ctx context.Context) ([]Table, error) {
	cfg := machine(ablationWidth).WithPolicy(core.PolicyPRIRcCkpt)
	ext := cfg
	ext.InlineAtRename = true
	return e.ipcAblation(ctx,
		fmt.Sprintf("Ablation: rename-time inlining extension, %d-wide", ablationWidth),
		[]string{"PRI IPC", "PRI+renameInline IPC"}, "gain", cfg, ext)
}

// ablationDelayedAllocation explores the paper's Section 6 virtual-physical
// direction: baseline vs delayed register allocation vs delayed allocation
// combined with PRI, at the Table 1 register file size.
func (e *Engine) ablationDelayedAllocation(ctx context.Context) ([]Table, error) {
	// A 40-register file keeps the writeback gate engaged so the
	// PRI interaction is visible (at 64 registers the gate rarely binds).
	const prs = 40
	base := machine(ablationWidth).WithPRs(prs)
	delayed := base
	delayed.DelayedAllocation = true
	both := delayed.WithPolicy(core.PolicyPRIRcLazy)
	return e.ipcAblation(ctx,
		fmt.Sprintf("Ablation: virtual-physical delayed allocation, %d-wide, %d PRs", ablationWidth, prs),
		[]string{"base IPC", "delayed IPC", "delayed+PRI IPC"}, "", base, delayed, both)
}

// ablationMSHR bounds memory-level parallelism: the default model overlaps
// misses without limit (as sim-outorder does); this table shows how much of
// the memory-bound benchmarks' throughput that assumption is worth.
func (e *Engine) ablationMSHR(ctx context.Context) ([]Table, error) {
	unlimited, m8, m2 := machine(ablationWidth), machine(ablationWidth), machine(ablationWidth)
	m8.Mem.MSHRs = 8
	m2.Mem.MSHRs = 2
	return e.ipcAblation(ctx,
		fmt.Sprintf("Ablation: MSHR-bounded miss overlap, %d-wide baseline", ablationWidth),
		[]string{"unlimited IPC", "8 MSHRs", "2 MSHRs"}, "", unlimited, m8, m2)
}

// ablationPrefetch adds an idealized next-line data prefetcher to the
// baseline: it shows how much of the streaming benchmarks' miss cost the
// Table 1 machine (which has none) leaves on the table.
func (e *Engine) ablationPrefetch(ctx context.Context) ([]Table, error) {
	pf := machine(ablationWidth)
	pf.Mem.NextLinePrefetch = true
	return e.ipcAblation(ctx,
		fmt.Sprintf("Ablation: next-line data prefetch, %d-wide baseline", ablationWidth),
		[]string{"no-prefetch IPC", "prefetch IPC"}, "gain", machine(ablationWidth), pf)
}

// ablationDisambiguation compares oracle and conservative memory
// disambiguation on the baseline machine (a documented model choice).
func (e *Engine) ablationDisambiguation(ctx context.Context) ([]Table, error) {
	cons := machine(ablationWidth)
	cons.ConservativeDisambiguation = true
	cons.Name += "-consv"
	return e.ipcAblation(ctx,
		fmt.Sprintf("Ablation: memory disambiguation, %d-wide baseline", ablationWidth),
		[]string{"oracle IPC", "conservative IPC"}, "ratio", machine(ablationWidth), cons)
}
