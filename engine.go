package prisim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"prisim/internal/asm"
	"prisim/internal/core"
	"prisim/internal/ooo"
	"prisim/internal/stats"
	"prisim/internal/workloads"
)

// Sentinel errors returned (wrapped, with detail) by Engine methods; test
// with errors.Is.
var (
	ErrUnknownBenchmark  = errors.New("unknown benchmark")
	ErrUnknownPolicy     = errors.New("unknown policy")
	ErrUnknownExperiment = errors.New("unknown experiment")
	ErrInvalidOptions    = errors.New("invalid options")
)

// Engine is the long-lived v2 entry point. It owns a memoizing, singleflight
// simulation cache and a bounded worker pool: concurrent Simulate calls for
// the same point share one run, and Experiment submits its whole run matrix
// to the pool before assembling rows, so output is byte-identical to serial
// execution while wall-clock scales with cores. An Engine is safe for use
// from multiple goroutines and is meant to be created once and reused.
type Engine struct {
	budget budget     // per-run budget, zero fields resolved to the defaults
	s      *shared    // caches and worker pool, shared by every view (see at, ProgressView)
	view   *viewState // progress accounting; ProgressView makes a new one
}

// budget bounds one measurement run, mirroring the paper's fast-forward +
// measure methodology (scaled down from 400M+100M to simulator-friendly
// sizes): ff instructions are skipped, then run instructions measured.
type budget struct{ ff, run uint64 }

// runKey identifies one timing run: the workload, the whole machine
// configuration and the budget. ooo.Config is comparable, so every field of
// the machine is part of the key and no two distinct machines can alias.
type runKey struct {
	bench  string
	cfg    ooo.Config
	budget budget
}

// shared is the Engine state common to every view: the worker pool and
// both singleflight caches.
type shared struct {
	sem      chan struct{}                  // bounded worker pool
	runs     *memo[runKey, *Result]         // timing results, unbounded
	snaps    *memo[snapKey, *ooo.WarmState] // fast-forward snapshots (see snapshot.go)
	ffInstrs atomic.Uint64                  // instructions fast-forwarded by snapshot builds
}

// viewState is a view's progress accounting: total counts every run
// requested through the view, done those that succeeded, however they
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

type engineSettings struct {
	budget  budget
	workers int
}

// EngineOption configures NewEngine.
type EngineOption func(*engineSettings)

// WithBudget sets the default per-run measurement budget: fastForward
// instructions skipped, then run instructions measured. Zero fields keep
// the paper-methodology defaults (20k + 80k). Options.FastForward/Run
// override this per call.
func WithBudget(fastForward, run uint64) EngineOption {
	return func(s *engineSettings) { s.budget = budget{fastForward, run} }
}

// WithParallelism bounds how many simulations run concurrently; n <= 0
// (the default) selects GOMAXPROCS. n == 1 reproduces serial execution.
func WithParallelism(n int) EngineOption {
	return func(s *engineSettings) { s.workers = n }
}

// NewEngine returns an Engine with the given options applied.
func NewEngine(opts ...EngineOption) *Engine {
	var s engineSettings
	for _, o := range opts {
		o(&s)
	}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		budget: budget{DefaultFastForward, DefaultRun},
		s: &shared{
			sem:   make(chan struct{}, s.workers),
			runs:  newMemo[runKey, *Result](0, nil),
			snaps: newMemo[snapKey](maxSnapshots, (*ooo.WarmState).Bytes),
		},
		view: &viewState{},
	}
	return e.at(s.budget)
}

// Budget reports the Engine's default per-run budget with zero WithBudget
// fields resolved to the defaults: the budget a Simulate call with zero
// Options.FastForward/Run runs at.
func (e *Engine) Budget() (fastForward, run uint64) {
	return e.budget.ff, e.budget.run
}

// at returns a view of e that simulates at b, zero fields falling back to
// e's budget, while sharing e's caches, worker pool and progress view. The
// budget is part of the cache key, so views never alias each other's
// results.
func (e *Engine) at(b budget) *Engine {
	v := *e
	if b.ff != 0 {
		v.budget.ff = b.ff
	}
	if b.run != 0 {
		v.budget.run = b.run
	}
	return &v
}

// resolveMachine validates the machine-selection half of o and builds the
// pipeline configuration.
func resolveMachine(o Options) (ooo.Config, error) {
	cfg := ooo.Width4()
	switch o.Width {
	case 0, 4:
	case 8:
		cfg = ooo.Width8()
	default:
		return cfg, fmt.Errorf("prisim: %w: width must be 4 or 8, got %d", ErrInvalidOptions, o.Width)
	}
	if len(o.MachineJSON) > 0 {
		// The JSON is the base machine; the remaining options still win.
		if err := json.Unmarshal(o.MachineJSON, &cfg); err != nil {
			return cfg, fmt.Errorf("prisim: %w: MachineJSON: %v", ErrInvalidOptions, err)
		}
	}
	return cfg, nil
}

// resolveOptions validates o and returns the workload plus the fully
// configured machine.
func resolveOptions(o Options) (workloads.Workload, ooo.Config, error) {
	w, ok := workloads.ByName(o.Benchmark)
	if !ok {
		return w, ooo.Config{}, fmt.Errorf("prisim: %w: %q", ErrUnknownBenchmark, o.Benchmark)
	}
	cfg, err := machineFor(o)
	return w, cfg, err
}

// machineFor builds the complete machine configuration o selects and
// rejects one the pipeline cannot simulate.
func machineFor(o Options) (ooo.Config, error) {
	cfg, err := resolveMachine(o)
	if err != nil {
		return cfg, err
	}
	pol := core.PolicyBase
	if o.Policy != "" {
		p, ok := policyMap[o.Policy]
		if !ok {
			return cfg, fmt.Errorf("prisim: %w: %q", ErrUnknownPolicy, o.Policy)
		}
		pol = p
	}
	cfg = cfg.WithPolicy(pol)
	if o.PhysRegs > 0 {
		cfg = cfg.WithPRs(o.PhysRegs)
	}
	cfg.InlineAtRename = o.RenameInline
	cfg.DelayedAllocation = o.DelayedAllocation
	if err := cfg.Check(); err != nil {
		return cfg, fmt.Errorf("prisim: %w: %v", ErrInvalidOptions, err)
	}
	return cfg, nil
}

// Simulate runs one benchmark at one machine point and returns the result.
// Identical concurrent calls share a single simulation; repeated calls hit
// the Engine's cache, which is keyed by the benchmark, the complete machine
// (MachineJSON included) and the budget. The run aborts with ctx's error if
// the context is cancelled. Only runs with PipeView set bypass the cache, so
// the trace is always produced. A fast-forward that reaches the benchmark's
// halt fails with ErrHalted.
func (e *Engine) Simulate(ctx context.Context, o Options) (Result, error) {
	w, cfg, err := resolveOptions(o)
	if err != nil {
		return Result{}, err
	}
	v := e.at(budget{o.FastForward, o.Run})
	var res *Result
	if o.PipeView != nil {
		res, _, err = runProgram(ctx, cfg, w.Build(0), w.Class == workloads.FP, v.budget, 0, o.PipeView)
	} else {
		res, err = v.run(ctx, w, cfg)
	}
	if err != nil {
		return Result{}, err
	}
	out := *res
	out.Benchmark = w.Name // runProgram leaves it empty
	return out, nil
}

// run simulates one benchmark on one machine configuration at e's budget,
// memoized and deduplicated: concurrent calls for the same point block on
// one simulation and share its result. The run is bounded by the worker
// pool and aborts between instruction chunks when ctx is cancelled; a
// cancelled flight is evicted so later calls retry it.
func (e *Engine) run(ctx context.Context, w workloads.Workload, cfg ooo.Config) (*Result, error) {
	e.view.request()
	res, err := e.s.runs.do(ctx, runKey{w.Name, cfg, e.budget},
		func() (*Result, error) { return e.simulate(ctx, w, cfg) })
	if err == nil {
		e.view.resolved()
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
func (e *Engine) simulate(ctx context.Context, w workloads.Workload, cfg ooo.Config) (*Result, error) {
	warm, err := e.warmFor(ctx, w, cfg)
	if err != nil {
		return nil, err
	}

	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	defer e.release()

	var p *ooo.Pipeline
	if warm != nil {
		p = ooo.NewFromWarm(cfg, warm)
	} else {
		p = ooo.New(cfg, w.Build(0)) // FastForward 0: nothing to clone
	}
	if err := runChunked(ctx, p.Run, e.budget.run, nil); err != nil {
		return nil, err
	}
	if err := haltedBefore(p, e.budget.ff); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return buildResult(p, cfg, w.Name, w.Class == workloads.FP), nil
}

// runChunked drives a resumable budgeted phase (FastForward or Run) in
// slices, checking ctx — and check, when non-nil (the program-sandbox
// memory cap) — between slices so long runs stop promptly. It accounts the
// instructions each slice actually retired — the commit stage can
// overshoot a slice quota by up to width-1 — so the run stops at the same
// cycle boundary a single phase(n) call would. A slice that falls short of
// its quota means the program halted, abandoning the rest.
func runChunked(ctx context.Context, phase func(uint64) uint64, n uint64, check func() error) error {
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

// buildResult snapshots a finished pipeline on machine cfg into a Result,
// reporting the lifetime and PRI counters of the fp or integer register
// class.
func buildResult(p *ooo.Pipeline, cfg ooo.Config, bench string, fp bool) *Result {
	st := p.Stats()
	life := p.Renamer().IntStats()
	if fp {
		life = p.Renamer().FPStats()
	}
	aw, wr, rr := life.AvgPhases()
	return &Result{
		Benchmark:      bench,
		Machine:        cfg.Name,
		IntPRs:         cfg.Rename.IntPRs,
		FPPRs:          cfg.Rename.FPPRs,
		IPC:            st.IPC(),
		Cycles:         st.Cycles,
		Committed:      st.Committed,
		IntOccupancy:   st.AvgIntOccupancy(),
		FPOccupancy:    st.AvgFPOccupancy(),
		AllocToWrite:   aw,
		WriteToRead:    wr,
		ReadToRelease:  rr,
		InlineFraction: st.InlineFraction(),
		MispredictRate: st.MispredictRate(),
		BranchResolved: st.BranchResolved,
		DL1MissRate:    p.Mem().DL1.MissRate(),
		L2MissRate:     p.Mem().L2.MissRate(),
		Replays:        st.Replays,
		InlinedResults: life.InlinedResults,
		WAWSuppressed:  life.WAWSuppressed,
		DeferredFrees:  life.DeferredFrees,
		EarlyFrees:     life.EarlyFrees,
	}
}

// ErrMemLimit matches (via errors.Is) the failure of a SimulateProgram run
// whose simulated machine footprint exceeded Options.MemLimit.
var ErrMemLimit = errors.New("simulated memory limit exceeded")

// ErrHalted matches (via errors.Is) the failure of a Simulate or
// SimulateProgram run whose measured window committed nothing because the
// program halted during the fast-forward: Options.FastForward reached or
// passed the program's last instruction.
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

// runProgram runs an arbitrary assembled program through the timing
// pipeline, uncached (the caller owns the program, so there is no key to
// memoize under). The budget is used verbatim — ff 0 skips nothing and run
// bounds committed instructions, stopping early if the program halts; a
// fast-forward that reaches the halt fails the run with an error wrapping
// ErrHalted. It honours ctx between instruction chunks, optionally streams
// an O3PipeView trace to pipeview, and returns the run's Result (with no
// Benchmark) alongside the program's console output. memLimit > 0 caps the
// simulated machine's resident footprint (checked between chunks, so a run
// can overshoot by at most one chunk's worth of page touches); exceeding it
// fails the run with an error wrapping ErrMemLimit.
func runProgram(ctx context.Context, cfg ooo.Config, prog *asm.Program, fp bool, b budget, memLimit uint64, pipeview io.Writer) (*Result, []byte, error) {
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
	if err := runChunked(ctx, p.FastForward, b.ff, check); err != nil {
		return nil, nil, err
	}
	if err := runChunked(ctx, p.Run, b.run, check); err != nil {
		return nil, nil, err
	}
	if err := haltedBefore(p, b.ff); err != nil {
		return nil, nil, err
	}
	if pipeview != nil {
		p.FlushPipeView()
	}
	return buildResult(p, cfg, "", fp), p.Machine().Output(), nil
}

// grid runs the workloads × configs matrix on the worker pool and returns
// res[i][j], the result of ws[i] on cfgs[j]. Points are submitted workload
// by workload: every point of one workload shares a fast-forward snapshot,
// so the first point's build serves its siblings the moment it completes.
// Drivers build their rows from the returned slice, so tables are
// byte-identical to a single-worker run.
func (e *Engine) grid(ctx context.Context, ws []workloads.Workload, cfgs ...ooo.Config) ([][]*Result, error) {
	res := make([][]*Result, len(ws))
	for i := range res {
		res[i] = make([]*Result, len(cfgs))
	}
	err := fanOut(len(ws)*len(cfgs), func(k int) error {
		i, j := k/len(cfgs), k%len(cfgs)
		var err error
		res[i][j], err = e.run(ctx, ws[i], cfgs[j])
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
func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a slot taken by acquire.
func (e *Engine) release() { <-e.s.sem }

// Program is an assembled PRISC-64 program runnable by SimulateProgram.
type Program struct {
	prog *asm.Program
}

// Assemble assembles PRISC-64 assembly text into a Program. On failure the
// error carries every diagnostic the frontend collected; extract them with
// AssembleDiagnostics.
func Assemble(src string) (*Program, error) {
	return AssembleFile("<input>", src)
}

// AssembleFile is Assemble with a file name for diagnostics.
func AssembleFile(name, src string) (*Program, error) {
	p, err := asm.AssembleFile(name, src)
	if err != nil {
		return nil, fmt.Errorf("prisim: %w", err)
	}
	return &Program{prog: p}, nil
}

// Diagnostic is one positioned assembly error: file, 1-based rune-accurate
// line/column, message, and the offending source line.
type Diagnostic = asm.Diagnostic

// AssembleDiagnostics extracts the collected diagnostics from an error
// returned by Assemble/AssembleFile, or nil if err did not come from the
// assembler frontend. The frontend collects every error it finds (capped),
// not just the first.
func AssembleDiagnostics(err error) []Diagnostic { return asm.Diagnostics(err) }

// SHA256 returns the hex content hash of the assembled image (symbols
// excluded): the identity program-job cache keys are derived from.
func (p *Program) SHA256() string { return p.prog.SHA256() }

// NewProgram wraps an already-assembled image (built with the in-module
// internal/asm builder API) for SimulateProgram. External users assemble
// text with Assemble instead.
func NewProgram(p *asm.Program) *Program { return &Program{prog: p} }

// Disassemble renders the program's code segment as assembly text.
func (p *Program) Disassemble() string { return p.prog.Disassemble() }

// ProgramResult is SimulateProgram's outcome: the usual timing statistics
// plus whatever the program wrote to its console.
type ProgramResult struct {
	Result
	Output []byte
}

// SimulateProgram runs an assembled program through the timing pipeline.
// Unlike Simulate, the budget in o is taken verbatim: FastForward 0 skips
// nothing and Run 0 runs until the program halts; a fast-forward that
// reaches the halt fails with ErrHalted. o.Benchmark must be empty; the run
// is never cached.
func (e *Engine) SimulateProgram(ctx context.Context, p *Program, o Options) (ProgramResult, error) {
	if o.Benchmark != "" {
		return ProgramResult{}, fmt.Errorf("prisim: %w: Benchmark must be empty when simulating an assembled program", ErrInvalidOptions)
	}
	cfg, err := machineFor(o)
	if err != nil {
		return ProgramResult{}, err
	}
	run := o.Run
	if run == 0 {
		run = math.MaxUint64 / 2 // run to halt
	}
	res, out, err := runProgram(ctx, cfg, p.prog, false, budget{o.FastForward, run}, o.MemLimit, o.PipeView)
	if err != nil {
		return ProgramResult{}, err
	}
	return ProgramResult{Result: *res, Output: out}, nil
}

// MachineJSON renders the machine configuration o selects as JSON — the
// format Options.MachineJSON and prisim's -machine flag accept.
func MachineJSON(o Options) ([]byte, error) {
	cfg, err := machineFor(o)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(cfg, "", "  ")
}

// Table is a rendered experiment table: the title, column headers, and row
// cells of one of the paper's figures or tables.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table as aligned fixed-width text.
func (t Table) String() string {
	st := &stats.Table{Title: t.Title, Columns: t.Columns, Rows: t.Rows}
	return st.String()
}

// ExperimentNames lists the valid Experiment names in canonical order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, x := range experiments {
		names[i] = x.name
	}
	return names
}

// ExperimentTables regenerates one of the paper's tables or figures and
// returns its tables in structured form. The experiment's whole run matrix
// executes on the Engine's worker pool; rows are assembled serially, so
// repeated calls produce identical tables regardless of parallelism.
// o supplies the per-run budget (other Options fields are ignored).
func (e *Engine) ExperimentTables(ctx context.Context, name string, o Options) ([]Table, error) {
	for _, x := range experiments {
		if x.name == name {
			return x.run(e.at(budget{o.FastForward, o.Run}), ctx)
		}
	}
	return nil, fmt.Errorf("prisim: %w: %q (have: %s)",
		ErrUnknownExperiment, name, strings.Join(ExperimentNames(), " "))
}

// Experiment regenerates one of the paper's tables or figures as rendered
// text. Valid names are listed by ExperimentNames; o supplies the per-run
// budget.
func (e *Engine) Experiment(ctx context.Context, name string, o Options) (string, error) {
	ts, err := e.ExperimentTables(ctx, name, o)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, t := range ts {
		sb.WriteString(t.String())
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// RunsExecuted reports how many distinct simulations the Engine has
// performed since creation; cache hits and deduplicated concurrent requests
// do not count. It exists so callers (and the race tests) can observe
// singleflight behaviour.
func (e *Engine) RunsExecuted() int { return e.s.runs.stats().runs }

// CacheStats is a snapshot of the Engine's memoization counters.
type CacheStats struct {
	Executed  int // simulations actually performed
	Hits      int // requests answered instantly from a completed cache entry
	Coalesced int // requests served by waiting on another caller's in-flight run

	// Fast-forward snapshot cache counters: each workload's warm state is
	// built once per budget and machine memory/predictor configuration,
	// starting from its nearest earlier budget's snapshot when one exists,
	// and every later run for it starts from a copy-on-write clone.
	SnapshotBuilds         int    // warm states built to fill the snapshot cache
	SnapshotHits           int    // runs that took a completed or in-flight build's warm state
	SnapshotBytes          uint64 // resident bytes of cached warm states
	SnapshotFFInstructions uint64 // instructions executed to build snapshots
}

// CacheStats reports how the Engine's singleflight run cache has been used
// since creation, across every view of the Engine. Services built on a
// shared Engine export these counters to show request coalescing.
func (e *Engine) CacheStats() CacheStats {
	runs, snaps := e.s.runs.stats(), e.s.snaps.stats()
	return CacheStats{
		Executed:               runs.runs,
		Hits:                   runs.hits,
		Coalesced:              runs.joins,
		SnapshotBuilds:         snaps.runs,
		SnapshotHits:           snaps.hits + snaps.joins,
		SnapshotBytes:          snaps.bytes,
		SnapshotFFInstructions: e.s.ffInstrs.Load(),
	}
}

// ProgressView returns a view of the Engine that reports per-view progress
// to fn while sharing the parent's cache and worker pool. Every simulation
// point requested through the view counts toward total when requested, and
// fn is called after each one succeeds — by the view's own run, by joining
// another caller's in-flight run, or instantly from the cache — with the
// points succeeded and requested so far; a warm experiment therefore
// reports N/N. Calls are serialized; fn must be fast and must not call back
// into the Engine. This is how a server streams per-request progress while
// every request shares one Engine.
func (e *Engine) ProgressView(fn func(done, total int)) *Engine {
	v := *e
	v.view = &viewState{hook: fn}
	return &v
}
