// Package service implements prisimd: simulation-as-a-service over the
// public prisim Engine. Every simulate and program job resolves its point
// through one fabric.Coordinator on one shared Engine, so identical points
// submitted by different clients, or by a job and a matrix, are stored once
// and simulated once; a bounded queue applies backpressure (429 +
// Retry-After) instead of collapsing under load; a worker pool sized to
// GOMAXPROCS executes jobs with per-job timeout, panic isolation, and
// context-propagated cancellation; and every job streams progress over SSE.
// The wire types live in prisim/prisimclient so external clients get a
// fully public API.
package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"prisim"
	"prisim/internal/asm"
	"prisim/internal/asm/analysis"
	"prisim/internal/fabric"
	"prisim/prisimclient"
)

// Submission errors surfaced by Submit (the HTTP layer maps them to 429,
// 503, and 409).
var (
	ErrQueueFull = errors.New("job queue full")
	ErrDraining  = errors.New("server is draining")
	// ErrCacheKeyMismatch rejects a simulate request whose client-computed
	// cache key disagrees with the server's — almost always kernel-version
	// skew between the submitting node and this one.
	ErrCacheKeyMismatch = errors.New("cache key mismatch")
)

// AssemblyError rejects a program submission whose source failed to
// assemble; the HTTP layer maps it to 422 with the structured diagnostics
// in the body.
type AssemblyError struct {
	Diags []prisimclient.Diagnostic
	err   error
}

// Error keeps the message itself short — the structured diagnostics carry
// the positions and excerpts, so repeating the assembler's full rendering
// here would print everything twice on the client.
func (e *AssemblyError) Error() string {
	n := len(e.Diags)
	if n == 1 {
		return "program failed to assemble: 1 error"
	}
	return fmt.Sprintf("program failed to assemble: %d errors", n)
}

// Unwrap exposes the underlying assembler error.
func (e *AssemblyError) Unwrap() error { return e.err }

// LintError rejects a program submission whose static analysis found a
// provable defect (e.g. a store whose every possible address lies outside
// the program image). The HTTP layer maps it to 422 with the full
// diagnostic list — errors and the accompanying warnings — so the client
// sees everything in one round trip. Warning-only findings never produce
// a LintError; they ride along on the accepted job instead.
type LintError struct {
	Diags []prisimclient.Diagnostic
}

func (e *LintError) Error() string {
	n := 0
	for _, d := range e.Diags {
		if d.Severity == "error" {
			n++
		}
	}
	if n == 1 {
		return "program rejected by static analysis: 1 error"
	}
	return fmt.Sprintf("program rejected by static analysis: %d errors", n)
}

// ProgramLimits is the sandbox for user-submitted program jobs. Zero fields
// select the defaults; the limits bound resources only and never change a
// successful run's outcome, so they are excluded from program cache keys.
type ProgramLimits struct {
	// MaxSourceBytes bounds the assembly source size (default 1MB).
	MaxSourceBytes int
	// MaxRun caps measured instructions per program run (default 50M). A
	// request's Run 0 ("to completion") becomes exactly this cap; an
	// explicit Run above it is rejected at submit rather than clamped, so a
	// request never silently measures less than it asked for.
	MaxRun uint64
	// MaxMemoryBytes caps the simulated machine's resident footprint
	// (default 256MB), checked between instruction chunks.
	MaxMemoryBytes uint64
}

// Default program sandbox limits.
const (
	DefaultMaxProgramSource = 1 << 20   // 1MB of assembly text
	DefaultMaxProgramRun    = 50 << 20  // ~50M instructions
	DefaultMaxProgramMemory = 256 << 20 // 256MB simulated footprint
)

// withDefaults fills zero fields.
func (l ProgramLimits) withDefaults() ProgramLimits {
	if l.MaxSourceBytes <= 0 {
		l.MaxSourceBytes = DefaultMaxProgramSource
	}
	if l.MaxRun == 0 {
		l.MaxRun = DefaultMaxProgramRun
	}
	if l.MaxMemoryBytes == 0 {
		l.MaxMemoryBytes = DefaultMaxProgramMemory
	}
	return l
}

// Config sizes a Server. The zero value selects sane defaults.
type Config struct {
	// Workers bounds concurrent job execution; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs waiting to run; <= 0 selects 4x Workers.
	// Submissions beyond queued+running capacity get 429 + Retry-After.
	QueueDepth int
	// JobTimeout bounds one job's execution (0 = no limit).
	JobTimeout time.Duration
	// Logger receives structured request/job logs; nil discards them.
	Logger *log.Logger

	// Programs is the sandbox for user-submitted program jobs; zero fields
	// take the defaults (see ProgramLimits).
	Programs ProgramLimits

	// NodeID stamps ComputedBy on results the server-built coordinator
	// computes; "" selects "local".
	NodeID string
	// Coordinator resolves every simulate and program point (store, then
	// in-flight run, then its Engine) and owns the Engine experiment jobs
	// also run on; its Engine's budget is the default for simulate jobs.
	// Nil builds one over a memory-only store and an Engine sized to
	// Workers at the default budget; the server closes it with itself.
	Coordinator *fabric.Coordinator
	// Fabric mounts the coordinator's control plane (/api/v1/fabric/...)
	// on this server's handler.
	Fabric bool
}

// Server owns the job queue, worker pool, job registry, and metrics. Create
// one with New, expose Handler over HTTP, and stop it with Drain or Close.
type Server struct {
	cfg       Config
	logger    *log.Logger
	metrics   *metrics
	coord     *fabric.Coordinator
	ownsCoord bool // built by New, so closed with the server

	rootCtx  context.Context // parent of every job context
	rootStop context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup // workers

	mu       sync.Mutex
	jobs     map[string]*job // guarded by mu
	order    []string        // guarded by mu; insertion order for listing
	nextID   uint64          // guarded by mu
	running  int             // guarded by mu
	draining bool            // guarded by mu
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	cfg.Programs = cfg.Programs.withDefaults()
	coord := cfg.Coordinator
	if coord == nil {
		st, err := fabric.OpenStore("")
		if err == nil {
			coord, err = fabric.New(fabric.Config{
				Store:  st,
				NodeID: cmp.Or(cfg.NodeID, "local"),
				Engine: prisim.NewEngine(prisim.WithParallelism(cfg.Workers)),
			})
		}
		if err != nil {
			// Unreachable: a fresh memory-only store has nothing to replay.
			panic("service: building the coordinator: " + err.Error())
		}
	}
	//lint:ignore ctxcheck the server owns this lifecycle root: every job context derives from it and Close/Drain cancel it
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		logger:    cfg.Logger,
		metrics:   newMetrics(),
		coord:     coord,
		ownsCoord: cfg.Coordinator == nil,
		rootCtx:   ctx,
		rootStop:  stop,
		queue:     make(chan *job, cfg.QueueDepth),
		jobs:      make(map[string]*job),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Engine exposes the shared engine (tests compare service results against
// direct calls on the very same cache).
func (s *Server) Engine() *prisim.Engine { return s.coord.Engine() }

// logf writes one structured log line if a logger is configured.
func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// Submit validates req, registers a job, and enqueues it. It returns
// ErrQueueFull when the queue is at capacity and ErrDraining after Drain or
// Close began.
func (s *Server) Submit(req prisimclient.JobRequest) (*job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	// Validate names up front so a bad request fails at submit, not inside
	// a worker.
	var checked *checkedProgram
	if req.Kind == prisimclient.KindProgram {
		var err error
		if checked, err = s.assembleRequest(&req); err != nil {
			return nil, err
		}
	}
	if req.Kind == prisimclient.KindSimulate {
		if _, err := prisim.MachineJSON(req.Options()); err != nil {
			return nil, err
		}
		found := false
		for _, b := range prisim.Benchmarks() {
			if b.Name == req.Benchmark {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown benchmark %q", req.Benchmark)
		}
	} else if req.Kind == prisimclient.KindExperiment && !slices.Contains(prisim.ExperimentNames(), req.Experiment) {
		return nil, fmt.Errorf("unknown experiment %q", req.Experiment)
	}

	// Content-address the point: make its budget explicit (request, then
	// the Engine's default) and hash it. A client-supplied key must agree —
	// a mismatch means the client hashed different inputs than this node
	// will simulate, almost always kernel-version skew, and trusting it
	// would poison every store keyed on the hash.
	var pt fabric.Point
	switch req.Kind {
	case prisimclient.KindSimulate:
		ff, run := s.coord.Engine().Budget()
		pt.Request = req
		pt.Request.FastForward = cmp.Or(req.FastForward, ff)
		pt.Request.Run = cmp.Or(req.Run, run)
		pt.Request.CacheKey = prisimclient.CacheKeyFor(prisim.Version, pt.Request)
	case prisimclient.KindProgram:
		// Programs key on the assembled image's content hash, not the
		// source text, with Run 0 resolved to the sandbox instruction cap.
		pt = fabric.Point{Request: req, Program: prisim.NewProgram(checked.prog), MemLimit: s.cfg.Programs.MaxMemoryBytes}
		pt.Request.Run = cmp.Or(req.Run, s.cfg.Programs.MaxRun)
		pt.Request.CacheKey = prisimclient.CacheKeyForProgram(prisim.Version, checked.prog.SHA256(), pt.Request)
	}
	if req.CacheKey != "" && req.CacheKey != pt.Request.CacheKey {
		return nil, fmt.Errorf("%w: client sent %.12s..., server (kernel %s) computes %.12s...",
			ErrCacheKeyMismatch, req.CacheKey, prisim.Version, pt.Request.CacheKey)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	j := newJob(id, req, s.rootCtx, time.Now())
	j.point = pt
	if checked != nil {
		j.warnings = checked.warnings
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		j.cancel()
		s.metrics.incRejected()
		return nil, ErrQueueFull
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.metrics.incSubmitted()
	s.logf("job=%s state=queued kind=%s bench=%q experiment=%q", id, req.Kind, req.Benchmark, req.Experiment)
	return j, nil
}

// checkedProgram is a program submission that survived assembly and the
// priscan static analysis: the image plus the warning-severity findings
// and the inlinability summary, all computed once at submit time.
type checkedProgram struct {
	prog         *asm.Program
	warnings     []prisimclient.Diagnostic
	inlinability prisimclient.Inlinability
}

// assembleRequest enforces the program sandbox's submit-time limits,
// assembles the source, and runs the priscan analyzers over the image,
// recording the outcomes in the program metrics. An assembly failure
// returns *AssemblyError and an analysis finding of error severity
// returns *LintError, so the HTTP layer can answer 422 with every
// positioned diagnostic; in both cases no engine run is ever dispatched.
// Warning findings never reject: they come back on the checkedProgram.
func (s *Server) assembleRequest(req *prisimclient.JobRequest) (*checkedProgram, error) {
	lim := s.cfg.Programs
	if len(req.Source) > lim.MaxSourceBytes {
		return nil, fmt.Errorf("program source is %d bytes; limit %d", len(req.Source), lim.MaxSourceBytes)
	}
	if req.Run > lim.MaxRun {
		return nil, fmt.Errorf("program run budget %d exceeds the server cap %d", req.Run, lim.MaxRun)
	}
	if _, err := prisim.MachineJSON(req.Options()); err != nil {
		return nil, err
	}
	prog, err := asm.AssembleFile("program.s", string(req.Source))
	if err != nil {
		s.metrics.incProgramAssemblyError()
		return nil, &AssemblyError{Diags: wireDiags(asm.Diagnostics(err)), err: err}
	}
	s.metrics.incProgramAssembled()

	rep := analysis.Analyze(prog, analysis.Options{})
	diags := rep.Diagnostics(prog, "program.s", string(req.Source))
	nerrors := 0
	for _, d := range diags {
		if d.Severity == analysis.SevError.String() {
			nerrors++
		}
	}
	if nerrors > 0 {
		s.metrics.incProgramLintRejected()
		return nil, &LintError{Diags: wireLintDiags(diags)}
	}
	s.metrics.addProgramLintWarnings(len(diags))
	inl := rep.Inlinability
	return &checkedProgram{
		prog:     prog,
		warnings: wireLintDiags(diags),
		inlinability: prisimclient.Inlinability{
			NarrowBits:   inl.NarrowBits,
			Defs:         inl.Defs,
			Narrow:       inl.Narrow,
			Wide:         inl.Wide,
			Unknown:      inl.Unknown,
			FPDefs:       inl.FPDefs,
			StaticFrac:   inl.StaticFrac,
			WeightedFrac: inl.WeightedFrac,
		},
	}, nil
}

// wireDiags converts assembler diagnostics to the client wire type.
func wireDiags(ds []asm.Diagnostic) []prisimclient.Diagnostic {
	out := make([]prisimclient.Diagnostic, len(ds))
	for i, d := range ds {
		out[i] = prisimclient.Diagnostic{File: d.File, Line: d.Line, Col: d.Col, Msg: d.Msg, Excerpt: d.Excerpt}
	}
	return out
}

// wireLintDiags converts priscan diagnostics to the client wire type.
func wireLintDiags(ds []analysis.Diag) []prisimclient.Diagnostic {
	out := make([]prisimclient.Diagnostic, len(ds))
	for i, d := range ds {
		out[i] = prisimclient.Diagnostic{
			File: d.File, Line: d.Line, Col: d.Col, Msg: d.Msg, Excerpt: d.Excerpt,
			Analyzer: d.Analyzer, Severity: d.Severity, Addr: d.Addr,
		}
	}
	return out
}

// jobByID looks a job up.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// listJobs snapshots every tracked job, oldest first.
func (s *Server) listJobs() []prisimclient.Job {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]prisimclient.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}

// worker pulls jobs until the queue closes (Drain) or the root context dies
// (Close).
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job with panic isolation: a panicking simulation
// fails the job, not the process.
func (s *Server) runJob(j *job) {
	if j.ctx.Err() != nil || !j.start(time.Now()) {
		// Cancelled while queued (requestCancel already resolved it), or
		// the server is shutting down hard.
		j.finish(prisimclient.StateCancelled, "cancelled while queued", time.Now())
		s.settle(j)
		return
	}
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		if p := recover(); p != nil {
			s.metrics.incPanics()
			s.logf("job=%s panic=%v\n%s", j.id, p, debug.Stack())
			j.finish(prisimclient.StateFailed, fmt.Sprintf("internal error: panic: %v", p), time.Now())
			s.settle(j)
		}
	}()

	ctx := j.ctx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	var err error
	started := time.Now()
	switch j.req.Kind {
	case prisimclient.KindSimulate, prisimclient.KindProgram:
		var e fabric.Entry
		var stored bool
		e, stored, err = s.coord.Resolve(ctx, j.point)
		if err == nil {
			j.setPoint(e)
			j.setProgress(1, 1)
			if stored {
				s.metrics.incStoreHit()
			} else {
				s.metrics.observeSimulate(e.Result.Committed, time.Since(started))
			}
		}
	case prisimclient.KindExperiment:
		var tables []prisim.Table
		tables, err = s.coord.Engine().ProgressView(j.setProgress).ExperimentTables(ctx, j.req.Experiment, j.req.Options())
		if err == nil {
			j.setTables(tables)
		}
	default:
		err = fmt.Errorf("unknown job kind %q", j.req.Kind)
	}

	now := time.Now()
	switch {
	case err == nil:
		j.finish(prisimclient.StateDone, "", now)
	case errors.Is(err, context.DeadlineExceeded):
		j.finish(prisimclient.StateFailed, fmt.Sprintf("job exceeded timeout %s", s.cfg.JobTimeout), now)
	case errors.Is(err, context.Canceled):
		reason := "cancelled"
		if !j.cancelRequested() {
			reason = "cancelled by server shutdown"
		}
		j.finish(prisimclient.StateCancelled, reason, now)
	default:
		j.finish(prisimclient.StateFailed, err.Error(), now)
	}
	s.settle(j)
}

// settle records terminal-state metrics and the job log line once.
func (s *Server) settle(j *job) {
	v := j.view()
	if !v.State.Terminal() {
		return
	}
	s.metrics.observeTerminal(v.State, v.Finished.Sub(v.Created))
	s.logf("job=%s state=%s latency=%s error=%q", j.id, v.State, v.Finished.Sub(v.Created).Round(time.Millisecond), v.Error)
}

// Draining reports whether Drain/Close has begun (readyz turns 503).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// beginDrain idempotently stops intake and closes the queue so workers exit
// once it empties.
func (s *Server) beginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
}

// Drain gracefully shuts the worker pool down: new submissions are refused,
// queued and running jobs keep executing, and when ctx expires every
// remaining job's context is cancelled (jobs observe it between instruction
// chunks and resolve as cancelled). Drain returns once all workers exited;
// the error reports whether the deadline forced cancellation.
func (s *Server) Drain(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	defer s.closeCoord()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll("cancelled by drain deadline")
		<-done
		return fmt.Errorf("drain deadline reached: in-flight jobs were cancelled: %w", ctx.Err())
	}
}

// Close shuts down immediately: intake stops and every live job is
// cancelled. It blocks until the workers exit.
func (s *Server) Close() {
	s.beginDrain()
	s.cancelAll("cancelled by server shutdown")
	s.rootStop()
	s.wg.Wait()
	s.closeCoord()
}

// closeCoord closes a coordinator New built, once no job can use it.
func (s *Server) closeCoord() {
	if s.ownsCoord {
		s.coord.Close()
	}
}

// cancelAll cancels every non-terminal job's context.
func (s *Server) cancelAll(reason string) {
	s.mu.Lock()
	live := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()
	for _, j := range live {
		if !j.stateNow().Terminal() {
			s.logf("job=%s %s", j.id, reason)
			j.cancel()
		}
	}
}
