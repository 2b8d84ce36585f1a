package prisim

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"prisim/internal/core"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

// shapeCheck is one verifiable claim about the reproduction: a property the
// paper's evaluation exhibits that the regenerated data should too.
type shapeCheck struct {
	name string
	pass bool
	note string
}

// checkShapes runs the experiment suite's cheap end of the paper's claims
// against live simulation data and reports which hold. These are the same
// properties EXPERIMENTS.md discusses; the report makes them executable so
// regressions in the model or workloads surface mechanically.
func (e *Engine) checkShapes(ctx context.Context) ([]shapeCheck, error) {
	// The whole matrix the checks consult: five policies at both widths,
	// then the Figure 9 extremes on the 4-wide machine.
	pols := []core.Policy{core.PolicyBase, core.PolicyER, core.PolicyPRIRcLazy,
		core.PolicyPRIPlusER, core.PolicyInfinite}
	var cfgs []ooo.Config
	for _, width := range []int{4, 8} {
		for _, pol := range pols {
			cfgs = append(cfgs, machine(width).WithPolicy(pol))
		}
	}
	cfgs = append(cfgs, machine(4).WithPRs(40), machine(4).WithPRs(96))
	ws := workloads.All()
	res, err := e.grid(ctx, ws, cfgs...)
	if err != nil {
		return nil, err
	}
	// at returns ws[i]'s result under pols[p] at the given width.
	at := func(i, width, p int) *Result { return res[i][(width/4-1)*len(pols)+p] }

	var checks []shapeCheck
	add := func(name string, pass bool, note string) {
		checks = append(checks, shapeCheck{name: name, pass: pass, note: note})
	}
	// Collect per-suite speedup averages for the three headline schemes.
	type avg struct{ er, pri, priER, inf float64 }
	averages := map[string]avg{}
	for _, class := range []workloads.Class{workloads.Int, workloads.FP} {
		for _, width := range []int{4, 8} {
			var a avg
			n := 0
			for i, w := range ws {
				if w.Class != class {
					continue
				}
				base := at(i, width, 0).IPC
				a.er += at(i, width, 1).IPC / base
				a.pri += at(i, width, 2).IPC / base
				a.priER += at(i, width, 3).IPC / base
				a.inf += at(i, width, 4).IPC / base
				n++
			}
			f := float64(n)
			averages[key(class, width)] = avg{a.er / f, a.pri / f, a.priER / f, a.inf / f}
		}
	}

	for _, k := range []string{"int4", "int8", "fp4", "fp8"} {
		a := averages[k]
		add("every scheme gains on average ("+k+")",
			a.er > 1 && a.pri > 1 && a.priER > 1,
			fmt.Sprintf("ER %+.1f%%, PRI %+.1f%%, PRI+ER %+.1f%%",
				100*(a.er-1), 100*(a.pri-1), 100*(a.priER-1)))
		add("infinite registers bound every scheme ("+k+")",
			a.inf >= a.er && a.inf >= a.pri && a.inf >= a.priER,
			fmt.Sprintf("inf %+.1f%%", 100*(a.inf-1)))
		add("PRI+ER beats ER alone ("+k+")", a.priER > a.er,
			fmt.Sprintf("%+.1f%% vs %+.1f%%", 100*(a.priER-1), 100*(a.er-1)))
		add("PRI+ER beats PRI alone ("+k+")", a.priER > a.pri,
			fmt.Sprintf("%+.1f%% vs %+.1f%%", 100*(a.priER-1), 100*(a.pri-1)))
	}
	add("8-wide PRI gains exceed 4-wide (int)",
		averages["int8"].pri > averages["int4"].pri,
		fmt.Sprintf("%+.1f%% vs %+.1f%%", 100*(averages["int8"].pri-1), 100*(averages["int4"].pri-1)))

	// Lifetime phases: phase 3 dominates at baseline; PRI+ER shrinks totals.
	phase3Dominant, lifetimeShrinks := 0, 0
	for i, w := range ws {
		if w.Class != workloads.Int {
			continue
		}
		base, both := at(i, 4, 0), at(i, 4, 3)
		if base.ReadToRelease >= base.AllocToWrite && base.ReadToRelease >= base.WriteToRead {
			phase3Dominant++
		}
		if lifetime(both) < lifetime(base) {
			lifetimeShrinks++
		}
	}
	add("phase 3 (dead time) dominates baseline lifetimes",
		phase3Dominant >= 8, fmt.Sprintf("%d/13 benchmarks", phase3Dominant))
	add("PRI+ER shrinks register lifetime",
		lifetimeShrinks >= 10, fmt.Sprintf("%d/13 benchmarks", lifetimeShrinks))

	// Figure 9 monotonicity at the extremes.
	monotone := 0
	for i := range ws {
		if lo, hi := res[i][len(cfgs)-2], res[i][len(cfgs)-1]; hi.IPC >= lo.IPC {
			monotone++
		}
	}
	add("more registers never hurt (PR=96 vs PR=40)",
		monotone == len(ws), fmt.Sprintf("%d/%d benchmarks", monotone, len(ws)))

	return checks, nil
}

func key(c workloads.Class, width int) string {
	return c.String() + strconv.Itoa(width)
}

// WriteReport regenerates the full experiment suite — every experiment
// ExperimentNames lists plus the executable shape checklist — as a
// self-contained markdown report on w, stopping at the first experiment
// that fails. o supplies the per-run budget.
func (e *Engine) WriteReport(ctx context.Context, w io.Writer, o Options) error {
	v := e.at(budget{o.FastForward, o.Run})
	fmt.Fprintf(w, "# prisim experiment report\n\n")
	fmt.Fprintf(w, "Budget: %d fast-forward + %d measured instructions per point.\n\n",
		v.budget.ff, v.budget.run)
	for _, x := range experiments {
		tables, err := x.run(v, ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		for _, t := range tables {
			fmt.Fprintf(w, "```\n%s```\n\n", t.String())
		}
	}

	fmt.Fprintf(w, "## Shape checklist\n\n")
	pass := 0
	checks, err := v.checkShapes(ctx)
	if err != nil {
		return err
	}
	for _, c := range checks {
		mark := "FAIL"
		if c.pass {
			mark = "ok"
			pass++
		}
		fmt.Fprintf(w, "- [%s] %s — %s\n", mark, c.name, c.note)
	}
	fmt.Fprintf(w, "\n%d/%d checks passed.\n", pass, len(checks))
	return nil
}
