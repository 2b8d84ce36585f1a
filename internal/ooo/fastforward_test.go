package ooo

import (
	"bytes"
	"reflect"
	"testing"

	"prisim/internal/bpred"
	"prisim/internal/isa"
	"prisim/internal/memsys"
	"prisim/internal/workloads"
)

// ffEquivInstrs is the fast-forward length of the equivalence test and the
// benchmark: the largest offset the sampled benchmark uses, below every
// workload's halt (facerec halts first, after about 528k instructions).
const ffEquivInstrs = 480_000

// referenceFastForward is the straightforward fast-forward loop FastForward
// must match: look the uop up, predict, step, then warm the caches and train
// the predictor. It also returns every address the loop touched, so the
// caller can compare cache contents block by block.
func referenceFastForward(p *Pipeline, n uint64) (done uint64, touched []uint64) {
	for done < n && !p.m.Halted() {
		pc := p.m.PC
		u := *p.m.UopAt(pc)
		var pred bpred.Prediction
		if u.Flags&isa.UopControl != 0 {
			pred = p.bp.Predict(pc, u.Inst)
		}
		info := p.m.Step()
		done++
		p.mem.InstFetch(pc)
		touched = append(touched, pc)
		if info.IsMem {
			p.mem.Data(info.MemAddr, u.Flags&isa.UopStore != 0)
			// The block after a data access is where a next-line prefetch
			// lands.
			touched = append(touched, info.MemAddr, info.MemAddr+uint64(p.cfg.Mem.DL1.LineBytes))
		}
		if u.Flags&isa.UopControl != 0 {
			predNPC := pc + 4
			if pred.Taken {
				predNPC = pred.Target
			}
			if predNPC != info.NextPC {
				p.bp.Recover(pc, u.Inst, pred, info.Taken)
			}
			p.bp.Update(pc, u.Inst, pred, info.Taken, info.NextPC)
		}
	}
	return done, touched
}

// TestFastForwardMatchesReference runs FastForward and the reference loop
// side by side on every workload, on the default memory system and with
// next-line prefetch and MSHRs on, and demands the same machine, predictor
// and cache state afterwards.
func TestFastForwardMatchesReference(t *testing.T) {
	prefetch := Width4()
	prefetch.Mem.NextLinePrefetch = true
	prefetch.Mem.MSHRs = 4
	for _, mc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Width4()},
		{"prefetch-mshr", prefetch},
	} {
		t.Run(mc.name, func(t *testing.T) {
			t.Parallel()
			for _, w := range workloads.All() {
				prog := w.Build(0)
				got, ref := New(mc.cfg, prog), New(mc.cfg, prog)
				n := got.FastForward(ffEquivInstrs)
				rn, touched := referenceFastForward(ref, ffEquivInstrs)
				if n != rn || n != ffEquivInstrs {
					t.Fatalf("%s: FastForward ran %d instructions, reference %d, want %d", w.Name, n, rn, ffEquivInstrs)
				}
				compareFastForward(t, w.Name, got, ref, touched)
			}
		})
	}
}

func compareFastForward(t *testing.T, name string, got, ref *Pipeline, touched []uint64) {
	t.Helper()
	gm, rm := got.Machine(), ref.Machine()
	if gm.PC != rm.PC || gm.Seq() != rm.Seq() {
		t.Errorf("%s: pc=%#x seq=%d, reference pc=%#x seq=%d", name, gm.PC, gm.Seq(), rm.PC, rm.Seq())
	}
	for r := 0; r < isa.NumArchRegs; r++ {
		if a, b := gm.Reg(isa.Reg(r)), rm.Reg(isa.Reg(r)); a != b {
			t.Errorf("%s: %s = %#x, reference %#x", name, isa.Reg(r), a, b)
		}
	}
	if !bytes.Equal(gm.Output(), rm.Output()) {
		t.Errorf("%s: output %q, reference %q", name, gm.Output(), rm.Output())
	}
	if !reflect.DeepEqual(got.Bpred(), ref.Bpred()) {
		t.Errorf("%s: branch predictor state differs from the reference", name)
	}
	gh, rh := got.Mem(), ref.Mem()
	for _, c := range []struct {
		level    string
		got, ref *memsys.Cache
	}{
		{"il1", gh.IL1, rh.IL1},
		{"dl1", gh.DL1, rh.DL1},
		{"ul2", gh.L2, rh.L2},
	} {
		if c.got.Accesses != c.ref.Accesses || c.got.Misses != c.ref.Misses || c.got.Writebacks != c.ref.Writebacks {
			t.Errorf("%s: %s accesses/misses/writebacks %d/%d/%d, reference %d/%d/%d", name, c.level,
				c.got.Accesses, c.got.Misses, c.got.Writebacks, c.ref.Accesses, c.ref.Misses, c.ref.Writebacks)
		}
		diffs := 0
		for _, a := range touched {
			if c.got.Contains(a) != c.ref.Contains(a) {
				diffs++
			}
		}
		if diffs > 0 {
			t.Errorf("%s: %s residency differs from the reference on %d of %d touched addresses", name, c.level, diffs, len(touched))
		}
	}
	if gh.Prefetches != rh.Prefetches || gh.MSHRWaits != rh.MSHRWaits {
		t.Errorf("%s: prefetches/MSHR waits %d/%d, reference %d/%d", name, gh.Prefetches, gh.MSHRWaits, rh.Prefetches, rh.MSHRWaits)
	}
}

// BenchmarkFastForward times the functional fast-forward alone: every
// workload for ffEquivInstrs instructions from a fresh pipeline (built off
// the clock), reporting host nanoseconds per fast-forwarded instruction.
func BenchmarkFastForward(b *testing.B) {
	ws := workloads.All()
	ps := make([]*Pipeline, len(ws))
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, w := range ws {
			ps[j] = New(Width4(), w.Build(0))
		}
		b.StartTimer()
		for _, p := range ps {
			instrs += p.FastForward(ffEquivInstrs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}
