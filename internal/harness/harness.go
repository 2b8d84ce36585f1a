// Package harness drives the experiments that regenerate every table and
// figure in the paper's evaluation (Tables 1-2, Figures 1-2 and 8-12). Each
// experiment returns a stats.Table whose rows mirror the series the paper
// plots; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// The run matrix behind those tables — 27 workloads x 8 release policies x
// 2 machine widths x a register-count axis — is embarrassingly parallel, so
// a Runner executes timing runs on a bounded worker pool: every figure
// driver declares its matrix once as a workloads × configs grid, the pool
// simulates the grid's points concurrently, and the driver builds rows
// serially from the returned grid, so tables are byte-identical to a
// single-worker run while wall-clock scales with cores. Experiments lists
// every driver by name. Concurrent requests for the same point are
// deduplicated singleflight-style (each point simulates exactly once per
// Runner), and every run observes context cancellation between instruction
// chunks.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"prisim/internal/asm"
	"prisim/internal/core"
	"prisim/internal/emu"
	"prisim/internal/ooo"
	"prisim/internal/stats"
	"prisim/internal/workloads"
)

// Budget bounds one measurement run, mirroring the paper's fast-forward +
// measure methodology (scaled down from 400M+100M to simulator-friendly
// sizes; override with cmd/priexp flags).
type Budget struct {
	FastForward uint64
	Run         uint64
}

// DefaultBudget is used by the experiment drivers unless overridden.
var DefaultBudget = Budget{FastForward: 20_000, Run: 80_000}

// orDefault fills zero fields from DefaultBudget.
func (b Budget) orDefault() Budget {
	if b.FastForward == 0 {
		b.FastForward = DefaultBudget.FastForward
	}
	if b.Run == 0 {
		b.Run = DefaultBudget.Run
	}
	return b
}

// Result is everything the experiments need from one timing run.
type Result struct {
	Bench  string
	Config string
	Policy string

	IPC          float64
	Cycles       uint64
	Committed    uint64
	IntOccupancy float64
	FPOccupancy  float64

	// Register lifetime phases, averaged per released register (cycles),
	// for the class matching the benchmark suite.
	AllocToWrite  float64
	WriteToRead   float64
	ReadToRelease float64

	InlineFraction float64
	Mispredict     float64
	DL1Miss        float64
	L2Miss         float64
	Replays        uint64
	BranchResolved uint64

	// PRI activity counters for the dominant register class.
	InlinedResults uint64
	WAWSuppressed  uint64
	DeferredFrees  uint64
	EarlyFrees     uint64
}

// runKey identifies one timing run: the workload, the whole machine
// configuration and the budget. ooo.Config is comparable, so every field of
// the machine is part of the key and no two distinct machines can alias.
type runKey struct {
	bench  string
	cfg    ooo.Config
	budget Budget
}

// shared is the Runner state common to every budget and progress view: the
// worker pool and both singleflight caches. Views created with WithBudget
// or ProgressView alias it, so deduplication spans all of them.
type shared struct {
	sem      chan struct{}                  // bounded worker pool
	runs     *memo[runKey, *Result]         // timing results, unbounded
	snaps    *memo[snapKey, *ooo.WarmState] // fast-forward snapshots (see snapshot.go)
	ffInstrs atomic.Uint64                  // instructions fast-forwarded by snapshot builds
}

// CacheStats is a snapshot of the Runner's memoization counters, spanning
// every budget/progress view of one shared cache.
type CacheStats struct {
	Executed  int // simulations actually performed
	Hits      int // requests answered from a completed cache entry
	Coalesced int // requests served by waiting on another caller's in-flight run

	// Fast-forward snapshot cache counters (see snapshot.go).
	SnapshotBuilds         int    // snapshots built, each from instruction 0 or chained from an earlier one
	SnapshotHits           int    // runs that took a completed or in-flight build's warm state
	SnapshotBytes          uint64 // resident bytes of cached warm states
	SnapshotFFInstructions uint64 // instructions executed to build snapshots
}

// viewState is a view's progress accounting: total counts every RunCtx
// request made through the view, done those that succeeded, however they
// were served. Only views made by ProgressView have a hook to report to.
type viewState struct {
	mu    sync.Mutex
	hook  func(done, total int) // guarded by mu
	done  int                   // guarded by mu
	total int                   // guarded by mu
}

// request counts one request against the view.
func (v *viewState) request() {
	v.mu.Lock()
	v.total++
	v.mu.Unlock()
}

// resolved marks one of the view's requests successful and fires the hook
// under the view lock, so reported (done, total) pairs are monotonic.
func (v *viewState) resolved() {
	v.mu.Lock()
	v.done++
	if v.hook != nil {
		v.hook(v.done, v.total)
	}
	v.mu.Unlock()
}

// Runner executes timing runs on a bounded worker pool and memoizes them;
// the same (benchmark, machine) point is shared by several figures, and
// concurrent requests for one point collapse into a single simulation.
// A Runner is safe for use from multiple goroutines.
type Runner struct {
	Budget Budget
	s      *shared
	view   *viewState // shared with WithBudget views; ProgressView makes a new one
}

// NewRunner returns a Runner with the given budget (zero fields take the
// defaults) and a worker pool sized by GOMAXPROCS.
func NewRunner(b Budget) *Runner { return NewParallelRunner(b, 0) }

// NewParallelRunner returns a Runner whose pool admits at most workers
// concurrent simulations; workers <= 0 selects GOMAXPROCS. workers == 1
// reproduces the serial execution order exactly.
func NewParallelRunner(b Budget, workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		Budget: b.orDefault(),
		s: &shared{
			sem:   make(chan struct{}, workers),
			runs:  newMemo[runKey, *Result](0, nil),
			snaps: newMemo[snapKey](maxSnapshots, (*ooo.WarmState).Bytes),
		},
		view: &viewState{},
	}
}

// WithBudget returns a view of the Runner that simulates at budget b (zero
// fields fall back to the receiver's budget) while sharing the receiver's
// caches, worker pool, and progress view. The budget is part of the cache
// key, so views never alias each other's results.
func (r *Runner) WithBudget(b Budget) *Runner {
	if b.FastForward == 0 {
		b.FastForward = r.Budget.FastForward
	}
	if b.Run == 0 {
		b.Run = r.Budget.Run
	}
	return &Runner{Budget: b, s: r.s, view: r.view}
}

// ProgressView returns a view of the Runner that reports per-view progress
// to fn while sharing the receiver's caches and worker pool. Every request
// made through the view counts toward total when it starts; fn is called
// after each one succeeds — by its own run, by joining another caller's, or
// instantly from the cache — with the number succeeded and the number
// requested so far. Calls are serialized; fn must be fast and must not call
// back into the Runner. The view survives WithBudget, so one view can track
// a whole experiment.
func (r *Runner) ProgressView(fn func(done, total int)) *Runner {
	return &Runner{Budget: r.Budget, s: r.s, view: &viewState{hook: fn}}
}

// CacheStats reports the memoization counters accumulated across every view
// of this Runner's shared cache.
func (r *Runner) CacheStats() CacheStats {
	runs, snaps := r.s.runs.stats(), r.s.snaps.stats()
	return CacheStats{
		Executed:               runs.runs,
		Hits:                   runs.hits,
		Coalesced:              runs.joins,
		SnapshotBuilds:         snaps.runs,
		SnapshotHits:           snaps.hits + snaps.joins,
		SnapshotBytes:          snaps.bytes,
		SnapshotFFInstructions: r.s.ffInstrs.Load(),
	}
}

// RunsExecuted reports how many simulations this Runner (including all
// budget views) has actually executed — cache hits and deduplicated
// concurrent requests do not count.
func (r *Runner) RunsExecuted() int { return r.s.runs.stats().runs }

// Run simulates one benchmark on one machine configuration, memoized. It is
// the context-free form of RunCtx and never fails.
func (r *Runner) Run(w workloads.Workload, cfg ooo.Config) *Result {
	//lint:ignore ctxcheck Run is the documented context-free convenience form; RunCtx is the context-threading API
	res, err := r.RunCtx(context.Background(), w, cfg)
	if err != nil {
		// Unreachable: a background context cannot be cancelled, and RunCtx
		// retries flights that a sibling's cancelled context tore down.
		panic("harness: Run failed: " + err.Error())
	}
	return res
}

// RunCtx simulates one benchmark on one machine configuration, memoized and
// deduplicated: concurrent calls for the same point block on one simulation
// and share its result. The run is bounded by the worker pool and aborts
// between instruction chunks when ctx is cancelled; a cancelled flight is
// evicted so later calls retry it.
func (r *Runner) RunCtx(ctx context.Context, w workloads.Workload, cfg ooo.Config) (*Result, error) {
	r.view.request()
	res, err := r.s.runs.do(ctx, runKey{w.Name, cfg, r.Budget},
		func() (*Result, error) { return r.simulate(ctx, w, cfg) })
	if err == nil {
		r.view.resolved()
	}
	return res, err
}

// ctxChunk is how many instructions execute between context checks.
const ctxChunk = 16 * 1024

// simulate performs one timing run inside a worker-pool slot, starting from
// a clone of the workload's warm fast-forward snapshot: one functional
// fast-forward per workload serves the whole sweep. warmFor runs before the
// slot is acquired: a caller waiting on another flight's snapshot build
// must not occupy a worker.
func (r *Runner) simulate(ctx context.Context, w workloads.Workload, cfg ooo.Config) (*Result, error) {
	warm, err := r.warmFor(ctx, w, cfg)
	if err != nil {
		return nil, err
	}

	if err := r.acquire(ctx); err != nil {
		return nil, err
	}
	defer r.release()

	var p *ooo.Pipeline
	if warm != nil {
		p = ooo.NewFromWarm(cfg, warm)
	} else {
		p = ooo.New(cfg, w.Build(0)) // FastForward 0: nothing to clone
	}
	if err := runChunked(ctx, p.Run, r.Budget.Run); err != nil {
		return nil, err
	}
	if err := haltedBefore(p, r.Budget.FastForward); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res := buildResult(p, w.Class == workloads.FP)
	res.Bench = w.Name
	res.Config = cfg.Name
	res.Policy = cfg.Rename.Policy.Name()
	return res, nil
}

// runChunked drives a resumable budgeted phase (FastForward or Run) in
// slices, checking ctx between slices so long runs cancel promptly. It
// accounts the instructions each slice actually retired — the commit stage
// can overshoot a slice quota by up to width-1 — so the run stops at the
// same cycle boundary a single phase(n) call would. A slice that falls
// short of its quota means the program halted, abandoning the rest.
func runChunked(ctx context.Context, phase func(uint64) uint64, n uint64) error {
	return runChunkedCheck(ctx, phase, n, nil)
}

// runChunkedCheck is runChunked with an optional between-chunk check (the
// program-sandbox memory cap); a non-nil error from check aborts the run.
func runChunkedCheck(ctx context.Context, phase func(uint64) uint64, n uint64, check func() error) error {
	for n > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		c := uint64(ctxChunk)
		if n < c {
			c = n
		}
		got := phase(c)
		if got < c || got >= n {
			break
		}
		n -= got
	}
	if check != nil {
		return check()
	}
	return nil
}

// buildResult snapshots a finished pipeline into a Result, reporting the
// lifetime and PRI counters of the fp or integer register class.
func buildResult(p *ooo.Pipeline, fp bool) *Result {
	st := p.Stats()
	life := p.Renamer().IntStats()
	if fp {
		life = p.Renamer().FPStats()
	}
	aw, wr, rr := life.AvgPhases()
	return &Result{
		IPC:            st.IPC(),
		Cycles:         st.Cycles,
		Committed:      st.Committed,
		IntOccupancy:   st.AvgIntOccupancy(),
		FPOccupancy:    st.AvgFPOccupancy(),
		AllocToWrite:   aw,
		WriteToRead:    wr,
		ReadToRelease:  rr,
		InlineFraction: st.InlineFraction(),
		Mispredict:     st.MispredictRate(),
		DL1Miss:        p.Mem().DL1.MissRate(),
		L2Miss:         p.Mem().L2.MissRate(),
		Replays:        st.Replays,
		BranchResolved: st.BranchResolved,
		InlinedResults: life.InlinedResults,
		WAWSuppressed:  life.WAWSuppressed,
		DeferredFrees:  life.DeferredFrees,
		EarlyFrees:     life.EarlyFrees,
	}
}

// ErrHalted fails a run whose measured window committed nothing because the
// program had already halted during the fast-forward before it.
var ErrHalted = errors.New("program halted before the measured window")

// haltedBefore returns an error wrapping ErrHalted when p's run committed
// nothing because its program halted within the ff-instruction
// fast-forward, and nil otherwise.
func haltedBefore(p *ooo.Pipeline, ff uint64) error {
	if p.Stats().Committed > 0 || !p.Machine().Halted() {
		return nil
	}
	return fmt.Errorf("%w: it halts after %d instructions, fast-forward %d", ErrHalted, p.Machine().Seq(), ff)
}

// ErrMemLimit aborts a program run whose simulated machine footprint
// exceeded the caller's memory cap (see RunProgram's memLimit).
var ErrMemLimit = errors.New("simulated memory limit exceeded")

// RunProgram runs an arbitrary assembled program through the timing
// pipeline, uncached (the caller owns the program, so there is no key to
// memoize under). The budget is used verbatim — FastForward 0 skips nothing
// and Run bounds committed instructions, stopping early if the program
// halts; a fast-forward that reaches the halt fails the run with an error
// wrapping ErrHalted. It honours ctx between instruction chunks, optionally
// streams an O3PipeView trace to pipeview, and returns the run's Result
// alongside the program's console output. memLimit > 0 caps the simulated
// machine's resident footprint (checked between chunks, so a run can
// overshoot by at most one chunk's worth of page touches); exceeding it
// fails the run with an error wrapping ErrMemLimit.
func RunProgram(ctx context.Context, cfg ooo.Config, prog *asm.Program, fp bool, b Budget, memLimit uint64, pipeview io.Writer) (*Result, []byte, error) {
	p := ooo.New(cfg, prog)
	if pipeview != nil {
		p.SetPipeView(pipeview)
	}
	var check func() error
	if memLimit > 0 {
		check = func() error {
			if fb := p.Machine().FootprintBytes(); fb > memLimit {
				return fmt.Errorf("%w: footprint %d bytes > limit %d", ErrMemLimit, fb, memLimit)
			}
			return nil
		}
	}
	if err := runChunkedCheck(ctx, p.FastForward, b.FastForward, check); err != nil {
		return nil, nil, err
	}
	if err := runChunkedCheck(ctx, p.Run, b.Run, check); err != nil {
		return nil, nil, err
	}
	if err := haltedBefore(p, b.FastForward); err != nil {
		return nil, nil, err
	}
	if pipeview != nil {
		p.FlushPipeView()
	}
	res := buildResult(p, fp)
	res.Config = cfg.Name
	res.Policy = cfg.Rename.Policy.Name()
	return res, p.Machine().Output(), nil
}

// grid runs the workloads × configs matrix on the worker pool and returns
// res[i][j], the result of ws[i] on cfgs[j]. Points are submitted workload
// by workload: every point of one workload shares a fast-forward snapshot,
// so the first point's build serves its siblings the moment it completes.
// Drivers build their rows from the returned slice, so tables are
// byte-identical to a single-worker run.
func (r *Runner) grid(ctx context.Context, ws []workloads.Workload, cfgs ...ooo.Config) ([][]*Result, error) {
	res := make([][]*Result, len(ws))
	for i := range res {
		res[i] = make([]*Result, len(cfgs))
	}
	err := fanOut(len(ws)*len(cfgs), func(k int) error {
		i, j := k/len(cfgs), k%len(cfgs)
		var err error
		res[i][j], err = r.RunCtx(ctx, ws[i], cfgs[j])
		return err
	})
	return res, err
}

// fanOut runs fn(i) for i in [0, n), each on its own goroutine, and returns
// the first error.
func fanOut(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			if err := fn(i); err != nil {
				once.Do(func() { first = err })
			}
		}()
	}
	wg.Wait()
	return first
}

// acquire takes a worker-pool slot, failing with ctx's error if ctx is
// cancelled first. Every acquire is paired with a release.
func (r *Runner) acquire(ctx context.Context) error {
	select {
	case r.s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a slot taken by acquire.
func (r *Runner) release() { <-r.s.sem }

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

// Experiment is one named entry of the evaluation: a table or figure of
// the paper, or one of the ablations.
type Experiment struct {
	Name string
	Run  func(*Runner, context.Context) ([]*stats.Table, error)
}

// Experiments is the registry of every experiment, in canonical order. The
// Engine's experiment API, the report, and prisimd's submit-time name
// check all read it.
var Experiments = []Experiment{
	{"table1", func(*Runner, context.Context) ([]*stats.Table, error) {
		return []*stats.Table{Table1()}, nil
	}},
	{"table2", single((*Runner).Table2)},
	{"fig1", single((*Runner).Fig1)},
	{"fig2", func(r *Runner, ctx context.Context) ([]*stats.Table, error) {
		a, b, err := r.Fig2(ctx)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{a, b}, nil
	}},
	{"fig8", single((*Runner).Fig8)},
	{"fig9", bothWidths((*Runner).Fig9)},
	{"fig10", bothWidths((*Runner).Fig10)},
	{"fig11", bothWidths((*Runner).Fig11)},
	{"fig12", bothWidths((*Runner).Fig12)},
	{"ablation-inline", single((*Runner).AblationRenameInline)},
	{"ablation-mem", single((*Runner).AblationDisambiguation)},
	{"ablation-delayed", single((*Runner).AblationDelayedAllocation)},
	{"ablation-mshr", single((*Runner).AblationMSHR)},
	{"ablation-prefetch", single((*Runner).AblationPrefetch)},
}

// single lifts a one-table driver into a registry entry.
func single(fn func(*Runner, context.Context) (*stats.Table, error)) func(*Runner, context.Context) ([]*stats.Table, error) {
	return func(r *Runner, ctx context.Context) ([]*stats.Table, error) {
		t, err := fn(r, ctx)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{t}, nil
	}
}

// bothWidths lifts a per-width driver into a registry entry that renders
// the 4-wide table, then the 8-wide one.
func bothWidths(fn func(*Runner, context.Context, int) (*stats.Table, error)) func(*Runner, context.Context) ([]*stats.Table, error) {
	return func(r *Runner, ctx context.Context) ([]*stats.Table, error) {
		var ts []*stats.Table
		for _, width := range []int{4, 8} {
			t, err := fn(r, ctx, width)
			if err != nil {
				return nil, err
			}
			ts = append(ts, t)
		}
		return ts, nil
	}
}

// Table1 renders the machine configurations (static; the paper's Table 1).
func Table1() *stats.Table {
	t := &stats.Table{
		Title:   "Table 1: machine configurations",
		Columns: []string{"parameter", "4-wide", "8-wide"},
	}
	c4, c8 := ooo.Width4(), ooo.Width8()
	row := func(name string, v4, v8 any) { t.AddRow(name, fmt.Sprint(v4), fmt.Sprint(v8)) }
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
	return t
}

// Table2 reproduces the paper's Table 2: baseline IPC for every benchmark
// on both machine widths.
func (r *Runner) Table2(ctx context.Context) (*stats.Table, error) {
	ws := workloads.All()
	res, err := r.grid(ctx, ws, machine(4), machine(8))
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Table 2: benchmark programs and baseline IPC",
		Columns: []string{"bench", "class", "IPC(4w)", "paper(4w)", "IPC(8w)", "paper(8w)"},
	}
	for i, w := range ws {
		t.AddRow(w.Name, w.Class.String(),
			stats.F(res[i][0].IPC, 2), stats.F(w.PaperIPC4, 2),
			stats.F(res[i][1].IPC, 2), stats.F(w.PaperIPC8, 2))
	}
	return t, nil
}

// lifetime is a result's total register lifetime across the three phases.
func lifetime(res *Result) float64 {
	return res.AllocToWrite + res.WriteToRead + res.ReadToRelease
}

// Fig1 reproduces Figure 1: average register lifetime split into the three
// phases, per integer benchmark, on the baseline 4- and 8-wide machines.
func (r *Runner) Fig1(ctx context.Context) (*stats.Table, error) {
	ws := suite(workloads.Int)
	res, err := r.grid(ctx, ws, machine(4), machine(8))
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
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
		t.AddRow(row...)
	}
	return t, nil
}

// Fig2 reproduces Figure 2: the cumulative distribution of operand
// significance — integer operand widths and FP exponent/significand widths —
// measured over the functional instruction stream. The per-benchmark
// analyses are independent, so they fan out over the worker pool.
func (r *Runner) Fig2(ctx context.Context) (*stats.Table, *stats.Table, error) {
	analyze := func(ws []workloads.Workload) ([]*stats.Significance, error) {
		sigs := make([]*stats.Significance, len(ws))
		err := fanOut(len(ws), func(i int) error {
			if err := r.acquire(ctx); err != nil {
				return err
			}
			defer r.release()
			m := emu.New(ws[i].Build(0))
			m.Run(r.Budget.FastForward)
			sigs[i] = stats.Analyze(m, r.Budget.Run)
			return nil
		})
		return sigs, err
	}

	intT := &stats.Table{
		Title:   "Figure 2 (top): cumulative % of integer operands representable in N bits",
		Columns: []string{"bench", "<=4", "<=7", "<=8", "<=10", "<=12", "<=16", "<=24", "<=32", "<=48", "<=64"},
	}
	widths := []int{4, 7, 8, 10, 12, 16, 24, 32, 48, 64}
	intWs := suite(workloads.Int)
	intSigs, err := analyze(intWs)
	if err != nil {
		return nil, nil, err
	}
	for i, w := range intWs {
		row := []string{w.Name}
		for _, n := range widths {
			row = append(row, stats.Pct(intSigs[i].IntFracWithin(n)))
		}
		intT.AddRow(row...)
	}

	fpT := &stats.Table{
		Title:   "Figure 2 (bottom): FP operand field significance",
		Columns: []string{"bench", "trivial(all 0/1)", "exp<=1b", "exp<=4b", "exp<=8b", "sig=0b", "sig<=16b", "sig<=32b"},
	}
	fpWs := suite(workloads.FP)
	fpSigs, err := analyze(fpWs)
	if err != nil {
		return nil, nil, err
	}
	for i, w := range fpWs {
		s := fpSigs[i]
		fpT.AddRow(w.Name,
			stats.Pct(s.FPTrivialFrac()),
			stats.Pct(s.ExpBits.CumulativeFrac(1)),
			stats.Pct(s.ExpBits.CumulativeFrac(4)),
			stats.Pct(s.ExpBits.CumulativeFrac(8)),
			stats.Pct(s.SigBits.CumulativeFrac(0)),
			stats.Pct(s.SigBits.CumulativeFrac(16)),
			stats.Pct(s.SigBits.CumulativeFrac(32)))
	}
	return intT, fpT, nil
}

// Fig8 reproduces Figure 8: lifetime reduction under PRI and PRI+ER versus
// the baseline, integer benchmarks, both widths.
func (r *Runner) Fig8(ctx context.Context) (*stats.Table, error) {
	var cfgs []ooo.Config
	for _, width := range []int{4, 8} {
		for _, pol := range []core.Policy{core.PolicyBase, core.PolicyPRIRcCkpt, core.PolicyPRIPlusER} {
			cfgs = append(cfgs, machine(width).WithPolicy(pol))
		}
	}
	ws := suite(workloads.Int)
	res, err := r.grid(ctx, ws, cfgs...)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
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
		t.AddRow(row...)
	}
	return t, nil
}

// Fig9PRs is the physical register sweep of Figure 9; its first entry is
// the normalization point.
var Fig9PRs = []int{40, 48, 56, 64, 72, 80, 96}

// Fig9 reproduces Figure 9: baseline speedup versus register file size,
// normalized to 40 registers, for every benchmark at the given width.
func (r *Runner) Fig9(ctx context.Context, width int) (*stats.Table, error) {
	cols := []string{"bench"}
	var cfgs []ooo.Config
	for _, n := range Fig9PRs {
		cols = append(cols, fmt.Sprintf("PR=%d", n))
		cfgs = append(cfgs, machine(width).WithPRs(n))
	}
	ws := workloads.All()
	res, err := r.grid(ctx, ws, cfgs...)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("Figure 9: register file sensitivity, %d-wide (speedup vs PR=40)", width),
		Columns: cols,
	}
	for i, w := range ws {
		row := []string{w.Name}
		for _, x := range res[i] {
			row = append(row, stats.F(x.IPC/res[i][0].IPC, 2))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// speedupTable renders Figures 10 and 12: per-benchmark IPC speedup of each
// scheme over the baseline, plus the arithmetic mean row.
func (r *Runner) speedupTable(ctx context.Context, class workloads.Class, width int, title string) (*stats.Table, error) {
	cfgs := []ooo.Config{machine(width).WithPolicy(core.PolicyBase)}
	for _, pol := range core.AllPolicies {
		cfgs = append(cfgs, machine(width).WithPolicy(pol))
	}
	ws := suite(class)
	res, err := r.grid(ctx, ws, cfgs...)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
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
		t.AddRow(row...)
	}
	avg := []string{"average"}
	for _, s := range sums {
		avg = append(avg, stats.F(mean(s), 3))
	}
	t.AddRow(avg...)
	return t, nil
}

// Fig10 reproduces Figure 10: integer speedups for all seven schemes.
func (r *Runner) Fig10(ctx context.Context, width int) (*stats.Table, error) {
	return r.speedupTable(ctx, workloads.Int, width,
		fmt.Sprintf("Figure 10: PRI speedup, integer benchmarks, %d-wide (IPC / base IPC)", width))
}

// Fig12 reproduces Figure 12: floating-point speedups for all seven schemes.
func (r *Runner) Fig12(ctx context.Context, width int) (*stats.Table, error) {
	return r.speedupTable(ctx, workloads.FP, width,
		fmt.Sprintf("Figure 12: PRI speedup, floating point benchmarks, %d-wide (IPC / base IPC)", width))
}

// Fig11 reproduces Figure 11: average physical register file occupancy for
// base, ER, PRI, and PRI+ER on the integer benchmarks.
func (r *Runner) Fig11(ctx context.Context, width int) (*stats.Table, error) {
	var cfgs []ooo.Config
	for _, pol := range []core.Policy{core.PolicyBase, core.PolicyER, core.PolicyPRIRcCkpt, core.PolicyPRIPlusER} {
		cfgs = append(cfgs, machine(width).WithPolicy(pol))
	}
	ws := suite(workloads.Int)
	res, err := r.grid(ctx, ws, cfgs...)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("Figure 11: avg integer PRF occupancy, %d-wide", width),
		Columns: []string{"bench", "base", "ER", "PRI", "PRI+ER"},
	}
	for i, w := range ws {
		row := []string{w.Name}
		for _, x := range res[i] {
			row = append(row, stats.F(x.IntOccupancy, 1))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ablationWidth is the machine width every ablation runs at.
const ablationWidth = 4

// ipcAblation renders an ablation table over the integer suite: one IPC
// column per config, headed by cols, plus — when ratio names it — a column
// of the last config's IPC over the first's.
func (r *Runner) ipcAblation(ctx context.Context, title string, cols []string, ratio string, cfgs ...ooo.Config) (*stats.Table, error) {
	ws := suite(workloads.Int)
	res, err := r.grid(ctx, ws, cfgs...)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Title: title, Columns: append([]string{"bench"}, cols...)}
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
		t.AddRow(row...)
	}
	return t, nil
}

// AblationRenameInline compares PRI with and without the Section 6
// future-work extension (rename-time inlining of narrow load-immediates).
func (r *Runner) AblationRenameInline(ctx context.Context) (*stats.Table, error) {
	cfg := machine(ablationWidth).WithPolicy(core.PolicyPRIRcCkpt)
	ext := cfg
	ext.InlineAtRename = true
	return r.ipcAblation(ctx,
		fmt.Sprintf("Ablation: rename-time inlining extension, %d-wide", ablationWidth),
		[]string{"PRI IPC", "PRI+renameInline IPC"}, "gain", cfg, ext)
}

// AblationDelayedAllocation explores the paper's Section 6 virtual-physical
// direction: baseline vs delayed register allocation vs delayed allocation
// combined with PRI, at the Table 1 register file size.
func (r *Runner) AblationDelayedAllocation(ctx context.Context) (*stats.Table, error) {
	// A 40-register file keeps the writeback gate engaged so the
	// PRI interaction is visible (at 64 registers the gate rarely binds).
	const prs = 40
	base := machine(ablationWidth).WithPRs(prs)
	delayed := base
	delayed.DelayedAllocation = true
	both := delayed.WithPolicy(core.PolicyPRIRcLazy)
	return r.ipcAblation(ctx,
		fmt.Sprintf("Ablation: virtual-physical delayed allocation, %d-wide, %d PRs", ablationWidth, prs),
		[]string{"base IPC", "delayed IPC", "delayed+PRI IPC"}, "", base, delayed, both)
}

// AblationMSHR bounds memory-level parallelism: the default model overlaps
// misses without limit (as sim-outorder does); this table shows how much of
// the memory-bound benchmarks' throughput that assumption is worth.
func (r *Runner) AblationMSHR(ctx context.Context) (*stats.Table, error) {
	unlimited, m8, m2 := machine(ablationWidth), machine(ablationWidth), machine(ablationWidth)
	m8.Mem.MSHRs = 8
	m2.Mem.MSHRs = 2
	return r.ipcAblation(ctx,
		fmt.Sprintf("Ablation: MSHR-bounded miss overlap, %d-wide baseline", ablationWidth),
		[]string{"unlimited IPC", "8 MSHRs", "2 MSHRs"}, "", unlimited, m8, m2)
}

// AblationPrefetch adds an idealized next-line data prefetcher to the
// baseline: it shows how much of the streaming benchmarks' miss cost the
// Table 1 machine (which has none) leaves on the table.
func (r *Runner) AblationPrefetch(ctx context.Context) (*stats.Table, error) {
	pf := machine(ablationWidth)
	pf.Mem.NextLinePrefetch = true
	return r.ipcAblation(ctx,
		fmt.Sprintf("Ablation: next-line data prefetch, %d-wide baseline", ablationWidth),
		[]string{"no-prefetch IPC", "prefetch IPC"}, "gain", machine(ablationWidth), pf)
}

// AblationDisambiguation compares oracle and conservative memory
// disambiguation on the baseline machine (a documented model choice).
func (r *Runner) AblationDisambiguation(ctx context.Context) (*stats.Table, error) {
	cons := machine(ablationWidth)
	cons.ConservativeDisambiguation = true
	cons.Name += "-consv"
	return r.ipcAblation(ctx,
		fmt.Sprintf("Ablation: memory disambiguation, %d-wide baseline", ablationWidth),
		[]string{"oracle IPC", "conservative IPC"}, "ratio", machine(ablationWidth), cons)
}
