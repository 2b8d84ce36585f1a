package emu

import (
	"testing"

	"prisim/internal/asm"
	"prisim/internal/isa"
)

// loopProgram builds a program whose 4-instruction loop body executes trips
// times: dynamic instruction count scales with trips, static count does not.
func loopProgram(t *testing.T, trips int64) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	b.Li(isa.IntReg(1), trips)
	b.Li(isa.IntReg(2), 0)
	b.Label("loop")
	b.RI(isa.OpADDI, isa.IntReg(2), isa.IntReg(2), 3)
	b.RI(isa.OpADDI, isa.IntReg(1), isa.IntReg(1), -1)
	b.Bnez(isa.IntReg(1), "loop")
	b.Halt()
	return b.MustFinish()
}

// TestUopCacheDecodesOnce is the decode-once contract: executing a loop body
// hundreds of times decodes each static instruction exactly once, and a
// rollback-free re-run of already-seen PCs decodes nothing new.
func TestUopCacheDecodesOnce(t *testing.T) {
	prog := loopProgram(t, 500)
	m := New(prog)
	ran := m.Run(0)
	if ran < 1000 {
		t.Fatalf("loop ran only %d instructions", ran)
	}
	static := uint64(len(prog.Code))
	got := m.StaticDecodes()
	if got > static {
		t.Errorf("decoded %d static instructions, program has only %d", got, static)
	}
	if got == 0 || got >= ran {
		t.Errorf("decodes = %d, want once-per-static (0 < decodes <= %d << %d dynamic)", got, static, ran)
	}

	// Re-walking the same PCs must hit the cache: peek at every text address.
	before := m.StaticDecodes()
	for pc := prog.CodeBase; pc < prog.CodeBase+4*uint64(len(prog.Code)); pc += 4 {
		m.SetPC(pc)
		m.PeekInst()
	}
	after := m.StaticDecodes()
	if after != before && after != static {
		t.Errorf("re-peek decoded new entries beyond the text segment: %d -> %d (static %d)", before, after, static)
	}
	if after != static {
		t.Errorf("full text walk left %d of %d entries undecoded", static-after, static)
	}
}

// TestUopCacheDisabledMatchesEnabled runs the same program with the cache on
// and off and demands identical architected outcomes and step reports.
func TestUopCacheDisabledMatchesEnabled(t *testing.T) {
	prog := loopProgram(t, 50)
	a, b := New(prog), New(prog)
	b.SetUopCache(false)
	for !a.Halted() || !b.Halted() {
		ia, ib := a.Step(), b.Step()
		if ia != ib {
			t.Fatalf("step diverged:\ncached:   %+v\nuncached: %+v", ia, ib)
		}
	}
	if b.StaticDecodes() != 0 {
		t.Errorf("disabled cache still filled %d entries", b.StaticDecodes())
	}
	for r := 0; r < isa.NumArchRegs; r++ {
		if a.Reg(isa.Reg(r)) != b.Reg(isa.Reg(r)) {
			t.Errorf("%s = %#x cached, %#x uncached", isa.Reg(r), a.Reg(isa.Reg(r)), b.Reg(isa.Reg(r)))
		}
	}
}

// TestUopOutOfTextScratch pins the wrong-path contract: fetching from a data
// address decodes through the scratch slot (no cache fill, no panic), and
// garbage bytes execute as the invalid no-op.
func TestUopOutOfTextScratch(t *testing.T) {
	prog := loopProgram(t, 1)
	m := New(prog)
	m.Mem.WriteU32(0x9000_0000, 0xFFFF_FFFF)
	m.SetPC(0x9000_0000)
	u := m.UopAt(m.PC)
	if u.Inst.Op != isa.OpInvalid {
		t.Errorf("garbage decoded to %v", u.Inst)
	}
	if m.StaticDecodes() != 0 {
		t.Errorf("out-of-text peek filled the cache (%d entries)", m.StaticDecodes())
	}
	info := m.Step()
	if info.Inst.Op != isa.OpInvalid || m.Halted() {
		t.Errorf("invalid step: %+v halted=%v", info, m.Halted())
	}
}
