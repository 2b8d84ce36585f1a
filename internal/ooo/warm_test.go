package ooo

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"prisim/internal/asm"
	"prisim/internal/core"
	"prisim/internal/emu"
	"prisim/internal/fuzzprog"
	"prisim/internal/isa"
	"prisim/internal/memsys"
	"prisim/internal/workloads"
)

// warmFingerprint extends the timing fingerprint with architected state so a
// clone that drifts functionally — not just in timing — is caught too.
func warmFingerprint(p *Pipeline) string {
	s := fingerprint(p)
	m := p.Machine()
	for r := 0; r < isa.NumArchRegs; r++ {
		s += fmt.Sprintf("r%d=%#x ", r, m.Reg(isa.Reg(r)))
	}
	return s + fmt.Sprintf("pc=%#x seq=%d out=%q", m.PC, m.Seq(), m.Output())
}

// TestWarmCloneEqualsReplay is the clone-equals-replay contract: for every
// policy family and both widths, a pipeline built from a captured warm state
// must produce bit-identical timing statistics and architected state to a
// cold pipeline that replays the fast-forward itself. The fuzz program's
// data-dependent branches keep recovery hot, so the run also stresses COW
// page writes during rollback.
func TestWarmCloneEqualsReplay(t *testing.T) {
	prog := fuzzprog.Generate(fuzzprog.Config{Seed: 42, OuterTrips: 8, BodyLen: 40})
	const ff = 2000

	// One capture serves every policy and width below: fast-forward state
	// depends only on the (shared) mem/bpred configuration.
	wp := New(Width4(), prog)
	if got := wp.FastForward(ff); got != ff {
		t.Fatalf("fast-forward ran %d instructions, want %d (program too short)", got, ff)
	}
	w := wp.CaptureWarm()
	if w.Instructions() != ff {
		t.Fatalf("WarmState.Instructions() = %d, want %d", w.Instructions(), ff)
	}
	if w.Bytes() == 0 {
		t.Fatal("WarmState.Bytes() = 0")
	}

	sawCOW := false
	policies := append([]core.Policy{core.PolicyBase}, core.AllPolicies...)
	for _, width := range []int{4, 8} {
		for _, pol := range policies {
			cfg := smallCfg(width).WithPolicy(pol)

			cold := New(cfg, prog)
			cold.FastForward(ff)
			cold.Run(1_000_000)

			hot := NewFromWarm(cfg, w)
			hot.Run(1_000_000)

			if !cold.done || !hot.done {
				t.Fatalf("w%d/%s: run did not complete (cold=%v hot=%v)", width, pol.Name(), cold.done, hot.done)
			}
			if a, b := warmFingerprint(cold), warmFingerprint(hot); a != b {
				t.Errorf("w%d/%s: warm clone diverged from cold replay:\ncold: %s\nhot:  %s", width, pol.Name(), a, b)
			}
			if hot.Machine().Mem.CowCopies() > 0 {
				sawCOW = true
			}
			hot.Renamer().CheckInvariants()
		}
	}
	if !sawCOW {
		t.Error("no run privatized any COW page; the squash/rollback path never wrote memory through the barrier")
	}
}

// chainFingerprint extends warmFingerprint with the raw cache and predictor
// counters, which a fast-forward advances alongside the machine.
func chainFingerprint(p *Pipeline) string {
	s := warmFingerprint(p)
	h := p.Mem()
	for _, c := range []*memsys.Cache{h.IL1, h.DL1, h.L2} {
		s += fmt.Sprintf(" %s=%d/%d/%d", c.Config().Name, c.Accesses, c.Misses, c.Writebacks)
	}
	bp := p.bp
	return s + fmt.Sprintf(" mshrwait=%d prefetch=%d bp=%d/%d/%d/%d/%d/%d/%d", h.MSHRWaits, h.Prefetches,
		bp.Lookups, bp.DirMiss, bp.TargetMiss, bp.RASPops, bp.RASMiss, bp.BTBHits, bp.BTBMisses)
}

// chainWarm captures the warm state at b the way a chained snapshot build
// does: fast-forward a, capture, clone, fast-forward the remaining b-a,
// capture again.
func chainWarm(cfg Config, prog *asm.Program, a, b uint64) *WarmState {
	p := New(cfg, prog)
	p.FastForward(a)
	q := NewFromWarm(cfg, p.CaptureWarm())
	q.FastForward(b - a)
	return q.CaptureWarm()
}

// TestWarmChainEqualsDirect is the chaining contract behind the harness's
// snapshot builds: a warm state at budget b built from a clone of the warm
// state at a < b, fast-forwarding only the gap, must run exactly like a
// pipeline that fast-forwards b from instruction 0. It covers every policy
// family at both widths on a squash-heavy fuzz program and two workloads,
// and programs that halt before a or between a and b.
func TestWarmChainEqualsDirect(t *testing.T) {
	type subject struct {
		name string
		prog *asm.Program
		a, b uint64
		run  uint64
	}
	fuzz := fuzzprog.Generate(fuzzprog.Config{Seed: 42, OuterTrips: 8, BodyLen: 40})
	ref := emu.New(fuzz)
	halt := ref.Run(0) // instructions up to and including HALT
	subjects := []subject{{name: "fuzzprog", prog: fuzz, a: halt / 4, b: halt / 2, run: 1_000_000}}
	for _, name := range []string{"gzip", "mcf"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		subjects = append(subjects, subject{name: name, prog: w.Build(0), a: 1500, b: 4000, run: 3000})
	}

	policies := append([]core.Policy{core.PolicyBase}, core.AllPolicies...)
	for _, sub := range subjects {
		for _, width := range []int{4, 8} {
			for _, pol := range policies {
				cfg := smallCfg(width).WithPolicy(pol)

				direct := New(cfg, sub.prog)
				if got := direct.FastForward(sub.b); got != sub.b {
					t.Fatalf("%s: fast-forward ran %d instructions, want %d (program too short)", sub.name, got, sub.b)
				}
				direct.Run(sub.run)

				chained := NewFromWarm(cfg, chainWarm(cfg, sub.prog, sub.a, sub.b))
				chained.Run(sub.run)

				if a, b := chainFingerprint(direct), chainFingerprint(chained); a != b {
					t.Errorf("%s/w%d/%s: chained warm state diverged from a direct fast-forward:\ndirect:  %s\nchained: %s",
						sub.name, width, pol.Name(), a, b)
				}
				chained.Renamer().CheckInvariants()
			}
		}
	}

	// A halted machine fast-forwards as a no-op, so a chain through or past
	// the halt point lands on the same state as a direct fast-forward, and
	// either one runs as a finished pipeline: nothing commits.
	for _, c := range []struct {
		name string
		a, b uint64
	}{
		{"halt-before-a", halt + 100, halt + 500},
		{"halt-between", halt / 2, halt + 500},
	} {
		direct := New(Width4(), fuzz)
		direct.FastForward(c.b)
		want := direct.CaptureWarm()
		got := chainWarm(Width4(), fuzz, c.a, c.b)
		if got.Instructions() != want.Instructions() || got.Instructions() != halt {
			t.Errorf("%s: chained Instructions() = %d, direct = %d, want the halt point %d",
				c.name, got.Instructions(), want.Instructions(), halt)
		}
		wantP, gotP := NewFromWarm(Width4(), want), NewFromWarm(Width4(), got)
		for _, p := range []*Pipeline{wantP, gotP} {
			if n := p.Run(1000); n != 0 {
				t.Errorf("%s: Run after the halt committed %d instructions, want 0", c.name, n)
			}
		}
		if a, b := chainFingerprint(wantP), chainFingerprint(gotP); a != b {
			t.Errorf("%s: chained warm state diverged from a direct fast-forward:\ndirect:  %s\nchained: %s", c.name, a, b)
		}
	}
}

// TestWarmCloneConcurrent builds many pipelines from one WarmState at once —
// the way a sweep does — and demands they all match a cold run. Run under
// -race this checks the frozen-snapshot property: concurrent NewFromWarm
// never writes the shared state.
func TestWarmCloneConcurrent(t *testing.T) {
	prog := fuzzprog.Generate(fuzzprog.Config{Seed: 7, OuterTrips: 8, BodyLen: 40})
	const ff = 1500

	cfg := Width4().WithPolicy(core.PolicyPRIRcCkpt)
	cold := New(cfg, prog)
	cold.FastForward(ff)
	cold.Run(1_000_000)
	want := warmFingerprint(cold)

	wp := New(Width4(), prog)
	wp.FastForward(ff)
	w := wp.CaptureWarm()

	const n = 8
	got := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := NewFromWarm(cfg, w)
			p.Run(1_000_000)
			got[i] = warmFingerprint(p)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("concurrent clone %d diverged from cold replay:\ncold: %s\nhot:  %s", i, want, g)
		}
	}
}

// TestWarmCaptureGuards pins the misuse panics: capturing after timing
// simulation, and constructing under a mismatched mem/bpred config.
func TestWarmCaptureGuards(t *testing.T) {
	prog := fuzzprog.Generate(fuzzprog.Config{Seed: 1, OuterTrips: 4, BodyLen: 20})

	t.Run("capture-after-run", func(t *testing.T) {
		p := New(Width4(), prog)
		p.Run(100)
		defer func() {
			if recover() == nil {
				t.Error("CaptureWarm after Run did not panic")
			}
		}()
		p.CaptureWarm()
	})

	t.Run("config-mismatch", func(t *testing.T) {
		p := New(Width4(), prog)
		p.FastForward(500)
		w := p.CaptureWarm()
		bad := Width4()
		bad.Mem.MSHRs = 8
		defer func() {
			if recover() == nil {
				t.Error("NewFromWarm under a different memsys config did not panic")
			}
		}()
		NewFromWarm(bad, w)
	})
}

// TestWarmOutputBytes spot-checks that program output produced before the
// capture point survives into clones byte-for-byte.
func TestWarmOutputBytes(t *testing.T) {
	prog := fuzzprog.Generate(fuzzprog.Config{Seed: 3, OuterTrips: 8, BodyLen: 40})
	p := New(Width4(), prog)
	p.FastForward(2500)
	pre := append([]byte(nil), p.Machine().Output()...)
	w := p.CaptureWarm()
	q := NewFromWarm(Width4(), w)
	if !bytes.Equal(q.Machine().Output(), pre) {
		t.Fatalf("clone output prefix %q, want %q", q.Machine().Output(), pre)
	}
}
