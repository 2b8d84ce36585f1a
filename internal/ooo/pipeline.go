// Package ooo is the cycle-level out-of-order pipeline model: fetch, rename,
// speculative scheduling, replay, and the commit-time PRI machinery, driven
// by an allocation-free event wheel over slot-recycled instruction slabs.
//
// The package promises deterministic simulation — output is a pure function
// of program and configuration, pinned bit-for-bit by the golden-hash tests.
//
//prisim:deterministic
package ooo

import (
	"fmt"

	"prisim/internal/asm"
	"prisim/internal/bpred"
	"prisim/internal/core"
	"prisim/internal/emu"
	"prisim/internal/isa"
	"prisim/internal/memsys"
)

// Pipeline is one simulated machine: functional emulator, rename machinery,
// predictors, caches, and all in-flight instruction state.
type Pipeline struct {
	cfg Config
	m   *emu.Machine
	ren *core.Renamer
	bp  *bpred.Predictor
	mem *memsys.Hierarchy

	now  uint64
	done bool

	// All in-flight instruction state, indexed by slot.
	slab instSlab

	// Reorder buffer: ring of in-flight slots in program order.
	rob     []int32
	robHead int
	robLen  int

	// Load/store queue (in-flight memory ops, program order).
	lsq     []int32
	lsqHead int

	// Front end: ring of fetched slots waiting for rename.
	fetchBuf        []int32
	fetchHead       int
	fetchCount      int
	fetchStallUntil uint64

	// Scheduler.
	schedCount int
	readyQ     readyQueue
	schedStash []readyEnt                 // not-yet-selectable entries, reused every cycle
	fu         [isa.NumFUClasses][]uint64 // busy-until per unit

	wheel eventWheel

	squashScratch []int32

	// Per-physical-register pipeline bookkeeping (index 0 = int, 1 = fp).
	// prReaders is maintained only under the IdealFixup policy — its one
	// consumer — so the common configurations skip the bookkeeping entirely.
	prProducer   [2][]int32
	prReaders    [2][][]waiter
	trackReaders bool

	lastCommitCycle uint64
	renameCursor    uint64 // seq of the youngest renamed instruction
	view            *pipeView
	stats           Stats
}

type eventKind uint8

const (
	evExecStart eventKind = iota
	evComplete
	evRetire
	evWake
)

// event is one pending pipeline action, packed to 24 bytes so a wheel bucket
// stays dense. gen and seq are frozen at post time: gen invalidates the
// event if the slot is recycled first, and seq preserves the deterministic
// oldest-first processing order regardless of recycling.
type event struct {
	seq uint64
	//prisim:genlink
	inst   int32
	gen    uint32
	kind   eventKind
	srcIdx int8
}

// New builds a pipeline for prog under cfg. The program is loaded but not
// started; call FastForward and/or Run.
func New(cfg Config, prog *asm.Program) *Pipeline {
	cfg.validate()
	return build(cfg, emu.New(prog), bpred.New(cfg.Bpred), memsys.New(cfg.Mem))
}

// build assembles a pipeline around pre-existing machine/predictor/hierarchy
// state — freshly constructed by New, or cloned from a WarmState by
// NewFromWarm. cfg must already be validated.
func build(cfg Config, m *emu.Machine, bp *bpred.Predictor, mem *memsys.Hierarchy) *Pipeline {
	p := &Pipeline{
		cfg:      cfg,
		m:        m,
		ren:      core.NewRenamer(cfg.Rename),
		bp:       bp,
		mem:      mem,
		rob:      newSlotRing(cfg.ROBSize),
		fetchBuf: newSlotRing((cfg.FrontDepth + 2) * cfg.Width),
	}
	p.wheel.init()
	for cl := range p.fu {
		p.fu[cl] = make([]uint64, cfg.FUCount[cl])
	}
	p.prProducer[0] = newSlotRing(cfg.Rename.IntPRs)
	p.prProducer[1] = newSlotRing(cfg.Rename.FPPRs)
	if cfg.Rename.Policy.IdealFixup {
		p.trackReaders = true
		p.prReaders[0] = make([][]waiter, cfg.Rename.IntPRs)
		p.prReaders[1] = make([][]waiter, cfg.Rename.FPPRs)
		p.ren.OnFixup = p.idealFixup
	}
	p.prewarm()
	return p
}

// newSlotRing returns a slot array of length n with every entry empty.
func newSlotRing(n int) []int32 {
	r := make([]int32, n)
	for i := range r {
		r[i] = noSlot
	}
	return r
}

// prewarm sizes the slab and free list to the pipeline's in-flight capacity
// bound (ROB plus the fetch ring: rename admits nothing beyond ROBSize, and
// fetch admits nothing beyond the ring) in one allocation per array, and
// pre-sizes the rename machinery's checkpoint pool to a steady-state branch
// population, so simulation — including the first squash storms — measures
// the kernel, not pool growth.
func (p *Pipeline) prewarm() {
	n := p.cfg.ROBSize + len(p.fetchBuf)
	sl := &p.slab
	sl.gen = make([]uint32, n)
	sl.seq = make([]uint64, n)
	sl.flags = make([]instFlag, n)
	sl.notReady = make([]int32, n)
	sl.readyCycle = make([]uint64, n)
	sl.completeCycle = make([]uint64, n)
	sl.data = make([]instData, n)
	sl.free = make([]int32, 0, n)
	for s := int32(n) - 1; s >= 0; s-- {
		sl.free = append(sl.free, s)
	}
	p.ren.PrewarmCheckpoints(32)
}

// Machine exposes the functional emulator (for output and test inspection).
func (p *Pipeline) Machine() *emu.Machine { return p.m }

// Renamer exposes the rename machinery (for statistics).
func (p *Pipeline) Renamer() *core.Renamer { return p.ren }

// Mem exposes the cache hierarchy.
func (p *Pipeline) Mem() *memsys.Hierarchy { return p.mem }

// Bpred exposes the branch predictor.
func (p *Pipeline) Bpred() *bpred.Predictor { return p.bp }

// Stats returns the accumulated timing statistics.
func (p *Pipeline) Stats() *Stats { return &p.stats }

// Now returns the current cycle.
func (p *Pipeline) Now() uint64 { return p.now }

// FastForward functionally executes n instructions (no timing, no undo log)
// to skip initialization, as the paper does before measurement. Caches and
// the branch predictor are warmed functionally so short measurement runs are
// not dominated by compulsory misses.
//
// Each instruction is stepped once, into one reused report, and predicted
// after the step from the uop the step returns. That is the prediction a
// predict-then-step loop makes: the predictor reads only the pc and the
// static instruction, and the emulator never touches the predictor.
func (p *Pipeline) FastForward(n uint64) uint64 {
	var info emu.StepInfo
	var done uint64
	for done < n && !p.m.Halted() {
		u := p.m.StepInto(&info)
		done++
		pc := info.PC
		p.mem.InstFetch(pc)
		if info.IsMem {
			p.mem.Data(info.MemAddr, u.Flags&isa.UopStore != 0)
		}
		if u.Flags&isa.UopControl != 0 {
			pred := p.bp.Predict(pc, u.Inst)
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
	return done
}

// Run simulates until maxCommit instructions have committed or the program's
// HALT commits, and returns the number committed.
func (p *Pipeline) Run(maxCommit uint64) uint64 {
	// Recording must survive across budgeted Runs: in-flight wrong-path
	// speculation still needs its rollback window on resumption. It is
	// torn down only once the program's HALT commits.
	if !p.m.Recording() {
		p.m.StartRecording()
	}
	if p.m.Halted() && p.robLen == 0 && p.fetchCount == 0 {
		// The functional machine halted before this pipeline fetched
		// anything (a fast-forward ran past the program's HALT), so no
		// instruction can ever commit: the run is over before it starts.
		p.done = true
	}
	start := p.stats.Committed
	p.lastCommitCycle = p.now
	for !p.done && p.stats.Committed-start < maxCommit {
		p.cycle()
		if p.now-p.lastCommitCycle > p.cfg.WatchdogCycles {
			panic(fmt.Sprintf("ooo: no commit for %d cycles at cycle %d (head %s)",
				p.cfg.WatchdogCycles, p.now, p.instString(p.robPeek())))
		}
	}
	if p.done {
		p.m.StopRecording()
	}
	return p.stats.Committed - start
}

//prisim:hotpath
func (p *Pipeline) robPeek() int32 {
	if p.robLen == 0 {
		return noSlot
	}
	return p.rob[p.robHead]
}

// cycle advances the machine one clock. Stage order is back to front so
// same-cycle structural effects flow like hardware: results produced this
// cycle wake consumers selectable this cycle, but newly renamed instructions
// wait for the next select.
//
//prisim:hotpath
func (p *Pipeline) cycle() {
	p.now++
	p.processEvents()
	p.commit()
	p.schedule()
	p.rename()
	p.fetch()
	iOcc, fOcc := p.ren.Occupancy()
	p.stats.Cycles++
	p.stats.IntOccupancySum += uint64(iOcc)
	p.stats.FPOccupancySum += uint64(fOcc)
}

// fetch models the Fetch stage: up to Width instructions per cycle from the
// (possibly wrong-path) functional machine, stopping at the first
// predicted-taken control transfer, stalling on instruction cache misses.
// The fetch buffer is a fixed ring sized to the front-end capacity, so
// advancing it never copies and its slots are recycled in place.
//
//prisim:hotpath
func (p *Pipeline) fetch() {
	if p.now < p.fetchStallUntil || p.m.Halted() {
		return
	}
	if p.fetchCount >= len(p.fetchBuf) {
		return
	}
	hitLat := p.cfg.Mem.IL1.Latency
	lat := p.mem.InstFetch(p.m.PC)
	if lat > hitLat {
		// Miss: the front end stalls for the extra fill time.
		p.fetchStallUntil = p.now + uint64(lat-hitLat)
		return
	}
	for n := 0; n < p.cfg.Width; n++ {
		if p.m.Halted() || p.fetchCount >= len(p.fetchBuf) {
			break
		}
		pc := p.m.PC
		s := p.newInst()
		d := &p.slab.data[s]
		// Step writes the report straight into the slot's cold slab entry;
		// the uop is copied by value because the cache's scratch entry (a
		// wrong-path PC outside the text segment) does not outlive the step.
		d.uop = *p.m.StepInto(&d.info)
		u := &d.uop
		p.slab.seq[s] = d.info.Seq
		d.pc = pc
		d.fetchCycle = p.now
		p.stats.Fetched++
		taken := false
		if u.Flags&isa.UopControl != 0 {
			p.slab.flags[s] |= fIsCtrl
			d.pred = p.bp.Predict(pc, u.Inst)
			d.predNPC = pc + 4
			if d.pred.Taken {
				d.predNPC = d.pred.Target
			}
			if d.predNPC != d.info.NextPC {
				p.slab.flags[s] |= fMispredict
				// The machine follows its prediction; the emulator's
				// undo log lets us run the wrong path for real and roll
				// back at resolution.
				p.m.SetPC(d.predNPC)
			}
			taken = d.predNPC != pc+4
		}
		p.fetchBuf[(p.fetchHead+p.fetchCount)%len(p.fetchBuf)] = s
		p.fetchCount++
		if taken {
			break // fetch stops at the first taken branch in a cycle
		}
		if u.Flags&isa.UopHalt != 0 {
			break
		}
	}
}

//prisim:hotpath
func (p *Pipeline) fetchPeek() int32 {
	if p.fetchCount == 0 {
		return noSlot
	}
	return p.fetchBuf[p.fetchHead]
}

//prisim:hotpath
func (p *Pipeline) fetchPop() {
	p.fetchBuf[p.fetchHead] = noSlot
	p.fetchHead = (p.fetchHead + 1) % len(p.fetchBuf)
	p.fetchCount--
}

// rename models the Rename stage: in-order resource allocation (ROB, LSQ,
// scheduler entry, physical register), source lookup through the map table,
// and checkpointing at every mispredictable control instruction.
//
//prisim:hotpath
func (p *Pipeline) rename() {
	for n := 0; n < p.cfg.Width; n++ {
		s := p.fetchPeek()
		if s == noSlot {
			return
		}
		d := &p.slab.data[s]
		if d.fetchCycle+uint64(p.cfg.FrontDepth) > p.now {
			return
		}
		if p.robLen >= p.cfg.ROBSize || p.schedCount >= p.cfg.SchedSize {
			p.stats.RenameStallWindow++
			return
		}
		u := &d.uop
		if u.Flags&isa.UopMem != 0 && p.lsqLen() >= p.cfg.LSQSize {
			p.stats.RenameStallWindow++
			return
		}
		hasDest := u.Flags&isa.UopHasDest != 0
		dest := u.Dest

		// Rename-time inlining extension: a load-immediate whose value
		// fits the narrow budget never allocates a register.
		inlineNow := false
		var inlineVal uint64
		if p.cfg.InlineAtRename && p.cfg.Rename.Policy.PRI && hasDest && u.Flags&isa.UopImmLoad != 0 {
			if p.ren.Narrow(dest, d.info.Result) {
				inlineNow, inlineVal = true, d.info.Result
			}
		}
		if hasDest && !inlineNow && !p.ren.CanAllocate(dest.IsFP()) {
			p.stats.RenameStallRegs++
			return
		}

		// Sources.
		for i := 0; i < int(u.NSrc); i++ {
			a := u.Srcs[i]
			op := p.ren.LookupSrc(a)
			d.srcs[i] = srcOperand{op: op, producer: noSlot}
			switch op.Kind {
			case core.OperandPR:
				p.stats.SrcPRReads++
				cl := classOf(a)
				producer := p.prProducer[cl][op.PR]
				d.srcs[i].producer = producer
				if producer != noSlot {
					d.srcs[i].pgen = p.slab.gen[producer]
				}
				if p.trackReaders {
					p.prReaders[cl][op.PR] = append(p.prReaders[cl][op.PR],
						waiter{inst: s, gen: p.slab.gen[s], seq: p.slab.seq[s], srcIdx: int32(i)})
				}
				p.linkOperand(s, i, producer)
			case core.OperandInline:
				p.stats.SrcInlineReads++
				d.srcs[i].ready = true
			default:
				d.srcs[i].ready = true
			}
		}

		// Destination.
		if hasDest {
			p.slab.flags[s] |= fHasDest
			if inlineNow {
				d.alloc = p.ren.InlineDest(dest, inlineVal, p.now)
				p.stats.RenameInlines++
			} else {
				alloc, ok := p.ren.AllocDest(dest, p.now)
				if !ok {
					panic("ooo: allocation failed after CanAllocate")
				}
				d.alloc = alloc
				cl := classOf(dest)
				p.growPR(cl, int(alloc.PR))
				p.prProducer[cl][alloc.PR] = s
			}
		}

		// Checkpoint after the instruction's own rename so recovery
		// preserves its destination mapping.
		if u.Flags&isa.UopTakesCkpt != 0 {
			d.ckpt = p.ren.TakeCheckpoint()
		}

		d.renameCycle = p.now
		p.renameCursor = p.slab.seq[s]
		p.slab.flags[s] |= fInROB
		p.robPush(s)
		if u.Flags&isa.UopMem != 0 {
			p.slab.flags[s] |= fInLSQ
			p.lsq = append(p.lsq, s)
		}
		p.schedInsert(s)
		p.fetchPop()
	}
}

func classOf(a isa.Reg) int {
	if a.IsFP() {
		return 1
	}
	return 0
}

// growPR extends the per-PR side tables when the infinite policy grows the
// register file.
func (p *Pipeline) growPR(cl, pr int) {
	for pr >= len(p.prProducer[cl]) {
		p.prProducer[cl] = append(p.prProducer[cl], noSlot)
		if p.trackReaders {
			p.prReaders[cl] = append(p.prReaders[cl], nil)
		}
	}
}

//prisim:hotpath
func (p *Pipeline) robPush(s int32) {
	idx := (p.robHead + p.robLen) % p.cfg.ROBSize
	p.rob[idx] = s
	p.robLen++
}

func (p *Pipeline) lsqLen() int { return len(p.lsq) - p.lsqHead }

// releaseSrc returns one source operand's reader reference exactly once.
//
//prisim:hotpath
func (p *Pipeline) releaseSrc(s int32, i int, read bool) {
	so := &p.slab.data[s].srcs[i]
	if so.released {
		return
	}
	so.released = true
	if so.op.Kind != core.OperandPR {
		return
	}
	if p.trackReaders {
		p.removeReader(classOf(so.op.Arch), so.op.PR, s, i)
	}
	p.ren.ReleaseRead(so.op, p.now, read)
}

//prisim:hotpath
func (p *Pipeline) removeReader(cl int, pr core.PhysReg, s int32, i int) {
	rs := p.prReaders[cl][pr]
	for j, w := range rs {
		if w.inst == s && w.srcIdx == int32(i) {
			rs[j] = rs[len(rs)-1]
			p.prReaders[cl][pr] = rs[:len(rs)-1]
			return
		}
	}
}

// idealFixup is the paper's instantaneous associative payload-RAM update:
// every in-flight consumer still holding a pointer to (cl, pr) is converted
// to an immediate operand and its reader reference released, letting the
// register free with no delay.
func (p *Pipeline) idealFixup(fp bool, pr core.PhysReg, value uint64) {
	cl := 0
	if fp {
		cl = 1
	}
	readers := p.prReaders[cl][pr]
	for len(readers) > 0 {
		w := readers[len(readers)-1]
		if p.slab.gen[w.inst] != w.gen {
			// Defensive: a recycled reader removes itself at release or
			// squash, so a stale entry should not exist — but dropping it is
			// strictly safer than rewriting a reborn instruction's operand.
			p.prReaders[cl][pr] = readers[:len(readers)-1]
			readers = p.prReaders[cl][pr]
			continue
		}
		so := &p.slab.data[w.inst].srcs[w.srcIdx]
		op := so.op
		so.op = core.Operand{Kind: core.OperandInline, Value: value, Arch: op.Arch}
		so.producer = noSlot
		if !so.ready {
			so.ready = true
			p.operandBecameReady(w.inst)
		}
		so.released = true
		p.removeReader(cl, pr, w.inst, int(w.srcIdx))
		p.ren.ReleaseRead(op, p.now, false)
		readers = p.prReaders[cl][pr]
		p.stats.IdealFixups++
	}
}
