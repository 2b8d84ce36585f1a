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
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"prisim"
)

func main() {
	ff := flag.Uint64("ff", 0, fmt.Sprintf("fast-forward instructions per run (0 = default %d)", prisim.DefaultFastForward))
	run := flag.Uint64("run", 0, fmt.Sprintf("measured instructions per run (0 = default %d)", prisim.DefaultRun))
	workers := flag.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print per-run progress")
	svgDir := flag.String("svg", "", "also render each figure as SVG into this directory")
	report := flag.String("report", "", "write a full markdown report (all experiments + shape checklist) to this file and exit")
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
