package prisim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"prisim/internal/asm"
	"prisim/internal/core"
	"prisim/internal/harness"
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
	runner *harness.Runner
}

type engineSettings struct {
	budget  harness.Budget
	workers int
}

// EngineOption configures NewEngine.
type EngineOption func(*engineSettings)

// WithBudget sets the default per-run measurement budget: fastForward
// instructions skipped, then run instructions measured. Zero fields keep
// the paper-methodology defaults (20k + 80k). Options.FastForward/Run
// override this per call.
func WithBudget(fastForward, run uint64) EngineOption {
	return func(s *engineSettings) {
		s.budget = harness.Budget{FastForward: fastForward, Run: run}
	}
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
	return &Engine{runner: harness.NewParallelRunner(s.budget, s.workers)}
}

// Budget reports the Engine's default per-run budget with zero WithBudget
// fields resolved to the defaults: the budget a Simulate call with zero
// Options.FastForward/Run runs at.
func (e *Engine) Budget() (fastForward, run uint64) {
	return e.runner.Budget.FastForward, e.runner.Budget.Run
}

// runnerFor returns the Engine's runner viewed at o's per-call budget
// (zero fields fall back to the Engine default). All views share one cache
// and worker pool.
func (e *Engine) runnerFor(o Options) *harness.Runner {
	return e.runner.WithBudget(harness.Budget{FastForward: o.FastForward, Run: o.Run})
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

// machineFor builds the complete machine configuration o selects.
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
		if o.PhysRegs < 32 {
			return cfg, fmt.Errorf("prisim: %w: PhysRegs must be at least 32 (one per architected register), got %d", ErrInvalidOptions, o.PhysRegs)
		}
		cfg = cfg.WithPRs(o.PhysRegs)
	}
	cfg.InlineAtRename = o.RenameInline
	cfg.DelayedAllocation = o.DelayedAllocation
	return cfg, nil
}

// toResult converts a harness result into the public form.
func toResult(hr *harness.Result, cfg ooo.Config) Result {
	return Result{
		Benchmark:      hr.Bench,
		Machine:        cfg.Name,
		IntPRs:         cfg.Rename.IntPRs,
		FPPRs:          cfg.Rename.FPPRs,
		IPC:            hr.IPC,
		Cycles:         hr.Cycles,
		Committed:      hr.Committed,
		IntOccupancy:   hr.IntOccupancy,
		FPOccupancy:    hr.FPOccupancy,
		AllocToWrite:   hr.AllocToWrite,
		WriteToRead:    hr.WriteToRead,
		ReadToRelease:  hr.ReadToRelease,
		InlineFraction: hr.InlineFraction,
		MispredictRate: hr.Mispredict,
		BranchResolved: hr.BranchResolved,
		DL1MissRate:    hr.DL1Miss,
		L2MissRate:     hr.L2Miss,
		Replays:        hr.Replays,
		InlinedResults: hr.InlinedResults,
		WAWSuppressed:  hr.WAWSuppressed,
		DeferredFrees:  hr.DeferredFrees,
		EarlyFrees:     hr.EarlyFrees,
	}
}

// Simulate runs one benchmark at one machine point and returns the result.
// Identical concurrent calls share a single simulation; repeated calls hit
// the Engine's cache. The run aborts with ctx's error if the context is
// cancelled. Runs with PipeView or MachineJSON set bypass the cache. A
// fast-forward that reaches the benchmark's halt fails with ErrHalted.
func (e *Engine) Simulate(ctx context.Context, o Options) (Result, error) {
	w, cfg, err := resolveOptions(o)
	if err != nil {
		return Result{}, err
	}
	rr := e.runnerFor(o)
	var hr *harness.Result
	if o.PipeView != nil || len(o.MachineJSON) > 0 {
		hr, _, err = harness.RunProgram(ctx, cfg, w.Build(0), w.Class == workloads.FP, rr.Budget, 0, o.PipeView)
		if hr != nil {
			hr.Bench = w.Name
		}
	} else {
		hr, err = rr.RunCtx(ctx, w, cfg)
	}
	if err != nil {
		return Result{}, err
	}
	return toResult(hr, cfg), nil
}

// ErrMemLimit matches (via errors.Is) the failure of a SimulateProgram run
// whose simulated machine footprint exceeded Options.MemLimit.
var ErrMemLimit = harness.ErrMemLimit

// ErrHalted matches (via errors.Is) the failure of a Simulate or
// SimulateProgram run whose measured window committed nothing because the
// program halted during the fast-forward: Options.FastForward reached or
// passed the program's last instruction.
var ErrHalted = harness.ErrHalted

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
	b := harness.Budget{FastForward: o.FastForward, Run: run}
	hr, out, err := harness.RunProgram(ctx, cfg, p.prog, false, b, o.MemLimit, o.PipeView)
	if err != nil {
		return ProgramResult{}, err
	}
	return ProgramResult{Result: toResult(hr, cfg), Output: out}, nil
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
	names := make([]string, len(harness.Experiments))
	for i, x := range harness.Experiments {
		names[i] = x.Name
	}
	return names
}

// ExperimentTables regenerates one of the paper's tables or figures and
// returns its tables in structured form. The experiment's whole run matrix
// executes on the Engine's worker pool; rows are assembled serially, so
// repeated calls produce identical tables regardless of parallelism.
// o supplies the per-run budget (other Options fields are ignored).
func (e *Engine) ExperimentTables(ctx context.Context, name string, o Options) ([]Table, error) {
	for _, x := range harness.Experiments {
		if x.Name != name {
			continue
		}
		ts, err := x.Run(e.runnerFor(o), ctx)
		if err != nil {
			return nil, err
		}
		out := make([]Table, 0, len(ts))
		for _, t := range ts {
			out = append(out, Table{Title: t.Title, Columns: t.Columns, Rows: t.Rows})
		}
		return out, nil
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

// WriteReport regenerates the full experiment suite — every experiment
// ExperimentNames lists plus the executable shape checklist — as a
// self-contained markdown report on w, stopping at the first experiment
// that fails. o supplies the per-run budget.
func (e *Engine) WriteReport(ctx context.Context, w io.Writer, o Options) error {
	return e.runnerFor(o).WriteReport(ctx, w)
}

// RunsExecuted reports how many distinct simulations the Engine has
// performed since creation; cache hits and deduplicated concurrent requests
// do not count. It exists so callers (and the race tests) can observe
// singleflight behaviour.
func (e *Engine) RunsExecuted() int { return e.runner.RunsExecuted() }

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
	cs := e.runner.CacheStats()
	return CacheStats{
		Executed:               cs.Executed,
		Hits:                   cs.Hits,
		Coalesced:              cs.Coalesced,
		SnapshotBuilds:         cs.SnapshotBuilds,
		SnapshotHits:           cs.SnapshotHits,
		SnapshotBytes:          cs.SnapshotBytes,
		SnapshotFFInstructions: cs.SnapshotFFInstructions,
	}
}

// ProgressView returns a view of the Engine that reports per-view progress
// to fn while sharing the parent's cache and worker pool. fn is called
// after each simulation point requested through the view resolves — by the
// view's own run or by joining another caller's in-flight run — with the
// points resolved and requested so far; points answered instantly from the
// cache do not fire it. Calls are serialized; fn must be fast and must not
// call back into the Engine. This is how a server streams per-request
// progress while every request shares one Engine.
func (e *Engine) ProgressView(fn func(done, total int)) *Engine {
	return &Engine{runner: e.runner.ProgressView(fn)}
}
