// Command priexp regenerates the paper's tables and figures through the
// public prisim Engine API: every experiment's run matrix executes on a
// worker pool sized by GOMAXPROCS (override with -j), output tables are
// byte-identical to a serial run, and ^C cancels mid-sweep.
//
// Usage:
//
//	priexp [flags] [experiment ...]
//
// `priexp -h` lists every experiment, the ablations included. With none
// named, priexp regenerates the paper's own tables and figures (table1
// through fig12).
//
// Absolute numbers depend on the synthetic workloads and scaled-down run
// budgets; the shapes (who wins, by roughly what factor) are the
// reproduction target. See EXPERIMENTS.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"time"

	"prisim"
)

func main() {
	ff := flag.Uint64("ff", 0, fmt.Sprintf("fast-forward instructions per run (0 = default %d)", prisim.DefaultFastForward))
	run := flag.Uint64("run", 0, fmt.Sprintf("measured instructions per run (0 = default %d)", prisim.DefaultRun))
	workers := flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print per-run progress")
	svgDir := flag.String("svg", "", "also render each figure as SVG into this directory")
	report := flag.String("report", "", "write a full markdown report (all experiments + shape checklist) to this file and exit")
	timing := flag.String("timing", "", "benchmark serial vs parallel fig8 wall-clock, write JSON to this file, and exit")
	version := flag.Bool("version", false, "print version and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: priexp [flags] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(prisim.ExperimentNames(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		fmt.Println("priexp", prisim.Version)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng := prisim.NewEngine(prisim.WithBudget(*ff, *run), prisim.WithParallelism(*workers))
	if *verbose {
		eng = eng.ProgressView(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d runs complete", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		})
	}

	if *timing != "" {
		if err := writeTiming(ctx, *timing, *ff, *run); err != nil {
			fatal(err)
		}
		return
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := eng.WriteReport(ctx, f, prisim.Options{}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *report)
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"table1", "table2", "fig1", "fig2", "fig8", "fig9", "fig10", "fig11", "fig12"}
	}
	for _, name := range args {
		tables, err := eng.ExperimentTables(ctx, name, prisim.Options{})
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
		if *svgDir != "" {
			if err := writeSVGs(*svgDir, name, tables); err != nil {
				fmt.Fprintf(os.Stderr, "priexp: svg: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// fatal prints err once under the command prefix and exits — status 2 for
// usage errors (bad experiment or option values), 1 for runtime failures,
// matching prisim and prias.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "priexp: %s\n", strings.TrimPrefix(err.Error(), "prisim: "))
	code := 1
	for _, usage := range []error{prisim.ErrUnknownExperiment, prisim.ErrUnknownBenchmark,
		prisim.ErrUnknownPolicy, prisim.ErrInvalidOptions} {
		if errors.Is(err, usage) {
			code = 2
		}
	}
	os.Exit(code)
}

// timingRecord is the -timing output: one serial and one parallel fig8
// regeneration from cold caches, whether their tables matched byte for
// byte, the raw kernel throughput of a single simulation (committed
// instructions per wall-clock second, the number BENCH_kernel.json tracks),
// and one cold snapshot sweep (the numbers BENCH_harness.json tracks and
// `make sweepgate` gates on).
type timingRecord struct {
	Experiment        string  `json:"experiment"`
	NumCPU            int     `json:"num_cpu"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	ParallelWorkers   int     `json:"parallel_workers"`
	SerialSeconds     float64 `json:"serial_seconds"`
	ParallelSeconds   float64 `json:"parallel_seconds"`
	Speedup           float64 `json:"speedup"`
	ByteIdentical     bool    `json:"byte_identical"`
	KernelInstrPerSec float64 `json:"kernel_instr_per_sec"`
	FastForward       uint64  `json:"fast_forward_per_run"`
	Run               uint64  `json:"run_per_run"`

	Sweep      sweepRecord      `json:"sweep"`
	Acceptance acceptanceRecord `json:"acceptance"`
}

// sweepRecord times one cold fig8-mix sweep — every integer workload at 8
// policy points, default fast-forward — where one functional fast-forward
// per workload serves every sibling point as a copy-on-write clone.
type sweepRecord struct {
	Workloads         int     `json:"workloads"`
	Points            int     `json:"points"`
	PointsPerWorkload int     `json:"points_per_workload"`
	FastForward       uint64  `json:"fast_forward_per_point"`
	Run               uint64  `json:"run_per_point"`
	SnapshotSeconds   float64 `json:"snapshot_seconds"`
	SnapshotBuilds    int     `json:"snapshot_builds"`
	SnapshotHits      int     `json:"snapshot_hits"`
	SnapshotBytes     uint64  `json:"snapshot_resident_bytes"`
}

// acceptanceRecord holds the CI floors derived from this record (see
// cmd/benchgate -floorkey).
type acceptanceRecord struct {
	// SweepPointsPerSecFloor is the sweep's measured throughput;
	// BenchmarkSweepFig8Mix must sustain a fraction of it.
	SweepPointsPerSecFloor float64 `json:"sweep_points_per_sec_floor"`
}

// writeTiming regenerates fig8 on a fresh single-worker Engine and a fresh
// multi-worker Engine, records both wall-clocks, and asserts the rendered
// tables are identical. The worker count is GOMAXPROCS but at least 2, so
// the race-safety claim (parallel == serial output) is exercised even on a
// single-core host where no wall-clock speedup is possible.
func writeTiming(ctx context.Context, path string, ff, run uint64) error {
	time1 := func(workers int) (string, float64, error) {
		eng := prisim.NewEngine(prisim.WithBudget(ff, run), prisim.WithParallelism(workers))
		start := time.Now()
		out, err := eng.Experiment(ctx, "fig8", prisim.Options{})
		return out, time.Since(start).Seconds(), err
	}
	serialOut, serialSec, err := time1(1)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	parOut, parSec, err := time1(workers)
	if err != nil {
		return err
	}
	kernelIPS, err := kernelThroughput(ctx, ff, run)
	if err != nil {
		return err
	}
	sweep, err := sweepTiming(ctx)
	if err != nil {
		return err
	}
	// Record the budgets the runs actually used: flag value 0 means the
	// engine defaults, not a zero-instruction fast-forward.
	recFF, recRun := ff, run
	if recFF == 0 {
		recFF = prisim.DefaultFastForward
	}
	if recRun == 0 {
		recRun = prisim.DefaultRun
	}
	rec := timingRecord{
		Experiment:        "fig8",
		NumCPU:            runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		ParallelWorkers:   workers,
		SerialSeconds:     serialSec,
		ParallelSeconds:   parSec,
		Speedup:           serialSec / parSec,
		ByteIdentical:     serialOut == parOut,
		KernelInstrPerSec: kernelIPS,
		FastForward:       recFF,
		Run:               recRun,
		Sweep:             sweep,
		Acceptance: acceptanceRecord{
			SweepPointsPerSecFloor: float64(sweep.Points) / sweep.SnapshotSeconds,
		},
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "timing written to %s (serial %.2fs, parallel %.2fs on %d workers, identical=%v, kernel %.0f instr/s)\n",
		path, serialSec, parSec, workers, rec.ByteIdentical, kernelIPS)
	fmt.Fprintf(os.Stderr, "sweep: %d points / %d workloads in %.2fs, %d builds + %d hits\n",
		sweep.Points, sweep.Workloads, sweep.SnapshotSeconds, sweep.SnapshotBuilds, sweep.SnapshotHits)
	return nil
}

// sweepRunPerPoint is the measured budget per sweep point. Keep in sync
// with internal/harness's BenchmarkSweepFig8Mix, which is gated against the
// floor this run records.
const sweepRunPerPoint = 8000

// sweepOptions is the fig8-shaped sweep matrix: every integer workload at
// 8 policy points (4 rename policies × both widths), run at the real
// default fast-forward.
func sweepOptions() []prisim.Options {
	pols := []prisim.Policy{prisim.PolicyBase, prisim.PolicyER, prisim.PolicyPRI, prisim.PolicyPRIPlusER}
	var opts []prisim.Options
	for _, b := range prisim.Benchmarks() {
		if b.FP {
			continue
		}
		for _, width := range []int{4, 8} {
			for _, pol := range pols {
				opts = append(opts, prisim.Options{Benchmark: b.Name, Width: width, Policy: pol})
			}
		}
	}
	return opts
}

// sweepTiming runs the sweep matrix cold on a fresh Engine and records its
// wall-clock and snapshot cache counters.
func sweepTiming(ctx context.Context) (sweepRecord, error) {
	eng := prisim.NewEngine(prisim.WithBudget(prisim.DefaultFastForward, sweepRunPerPoint))
	opts := sweepOptions()
	errs := make([]error, len(opts))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range opts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = eng.Simulate(ctx, opts[i])
		}(i)
	}
	wg.Wait()
	sec := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return sweepRecord{}, err
		}
	}
	cs := eng.CacheStats()
	workloads := cs.SnapshotBuilds // one snapshot build per workload
	return sweepRecord{
		Workloads:         workloads,
		Points:            len(opts),
		PointsPerWorkload: len(opts) / workloads,
		FastForward:       prisim.DefaultFastForward,
		Run:               sweepRunPerPoint,
		SnapshotSeconds:   sec,
		SnapshotBuilds:    cs.SnapshotBuilds,
		SnapshotHits:      cs.SnapshotHits,
		SnapshotBytes:     cs.SnapshotBytes,
	}, nil
}

// kernelThroughput times one mcf simulation (the fig8 matrix's dominant
// workload) on the baseline machine and returns committed instructions per
// second — a construction-free view of the simulation kernel's speed.
func kernelThroughput(ctx context.Context, ff, run uint64) (float64, error) {
	eng := prisim.NewEngine(prisim.WithBudget(ff, run))
	start := time.Now()
	res, err := eng.Simulate(ctx, prisim.Options{Benchmark: "mcf"})
	if err != nil {
		return 0, err
	}
	return float64(res.Committed) / time.Since(start).Seconds(), nil
}
