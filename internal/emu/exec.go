package emu

import (
	"math"

	"prisim/internal/isa"
)

// Step executes one instruction and returns what happened. Executing while
// halted returns the last state unchanged (Halted set).
func (m *Machine) Step() StepInfo {
	var info StepInfo
	m.StepInto(&info)
	return info
}

// StepInto executes one instruction, writing what happened into *info, and
// returns the decoded uop it executed (nil on a halted no-op step). The
// timing model passes one reused report, or the dynamic instruction's own
// slot, so no report is built in a temporary and copied out. Every field of
// *info is written, so a slot needs no clearing between steps. The static
// instruction is taken from the decoded-uop cache, not re-decoded: the
// returned pointer names the cache entry, or the machine's scratch slot for
// a PC outside the text segment, which the next step overwrites. Callers
// that keep the uop past the next step must copy it.
//
//prisim:hotpath
func (m *Machine) StepInto(info *StepInfo) *isa.Uop {
	if m.halted {
		*info = StepInfo{Seq: m.seq, PC: m.PC, NextPC: m.PC, Halted: true}
		return nil
	}
	pc := m.PC
	u := m.UopAt(pc)
	in := u.Inst
	if m.recording {
		m.frames = append(m.frames, frame{
			pc:        pc,
			undoStart: len(m.undos),
			outLen:    len(m.output),
			halted:    m.halted,
		})
	}
	m.seq++
	info.Seq, info.PC, info.Inst = m.seq, pc, in
	info.Taken, info.Halted = false, false
	info.IsMem, info.MemAddr, info.MemSize = false, 0, 0
	info.HasResult, info.Result = false, 0
	next := pc + 4

	ra, rb := m.regs[in.Ra], m.regs[in.Rb]
	//lint:ignore hotpathalloc non-escaping closure: captured only within this frame, so it never reaches the heap
	setInt := func(v uint64) {
		m.writeReg(in.Rd, v)
		info.HasResult, info.Result = in.Rd != isa.RZero, v
	}
	//lint:ignore hotpathalloc non-escaping closure: captured only within this frame, so it never reaches the heap
	setFP := func(v float64) {
		bits := math.Float64bits(v)
		m.writeReg(in.Rd, bits)
		info.HasResult, info.Result = true, bits
	}
	fa, fb := math.Float64frombits(ra), math.Float64frombits(rb)

	switch in.Op {
	case isa.OpADD:
		setInt(ra + rb)
	case isa.OpSUB:
		setInt(ra - rb)
	case isa.OpMUL:
		setInt(ra * rb)
	case isa.OpDIV:
		setInt(uint64(divS(int64(ra), int64(rb))))
	case isa.OpDIVU:
		if rb == 0 {
			setInt(0)
		} else {
			setInt(ra / rb)
		}
	case isa.OpREM:
		setInt(uint64(remS(int64(ra), int64(rb))))
	case isa.OpAND:
		setInt(ra & rb)
	case isa.OpOR:
		setInt(ra | rb)
	case isa.OpXOR:
		setInt(ra ^ rb)
	case isa.OpNOR:
		setInt(^(ra | rb))
	case isa.OpSLL:
		setInt(ra << (rb & 63))
	case isa.OpSRL:
		setInt(ra >> (rb & 63))
	case isa.OpSRA:
		setInt(uint64(int64(ra) >> (rb & 63)))
	case isa.OpSLT:
		setInt(b2u(int64(ra) < int64(rb)))
	case isa.OpSLTU:
		setInt(b2u(ra < rb))
	case isa.OpSEQ:
		setInt(b2u(ra == rb))
	case isa.OpCMOVEQ:
		if ra == 0 {
			setInt(rb)
		} else {
			setInt(m.regs[in.Rd]) // keep the old value; still a write
		}
	case isa.OpCMOVNE:
		if ra != 0 {
			setInt(rb)
		} else {
			setInt(m.regs[in.Rd])
		}

	case isa.OpADDI:
		setInt(ra + uint64(in.Imm))
	case isa.OpANDI:
		setInt(ra & uint64(uint16(in.Imm)))
	case isa.OpORI:
		setInt(ra | uint64(uint16(in.Imm)))
	case isa.OpXORI:
		setInt(ra ^ uint64(uint16(in.Imm)))
	case isa.OpSLLI:
		setInt(ra << (uint64(in.Imm) & 63))
	case isa.OpSRLI:
		setInt(ra >> (uint64(in.Imm) & 63))
	case isa.OpSRAI:
		setInt(uint64(int64(ra) >> (uint64(in.Imm) & 63)))
	case isa.OpSLTI:
		setInt(b2u(int64(ra) < in.Imm))
	case isa.OpLUI:
		setInt(uint64(in.Imm << 16))

	case isa.OpLDQ, isa.OpLDL, isa.OpLDB, isa.OpLDBU, isa.OpFLD:
		addr := ra + uint64(in.Imm)
		info.IsMem, info.MemAddr = true, addr
		switch in.Op {
		case isa.OpLDQ, isa.OpFLD:
			info.MemSize = 8
			setInt(m.Mem.ReadU64(addr))
		case isa.OpLDL:
			info.MemSize = 4
			setInt(uint64(int64(int32(m.Mem.ReadU32(addr)))))
		case isa.OpLDB:
			info.MemSize = 1
			setInt(uint64(int64(int8(m.Mem.ReadU8(addr)))))
		case isa.OpLDBU:
			info.MemSize = 1
			setInt(uint64(m.Mem.ReadU8(addr)))
		}
	case isa.OpSTQ, isa.OpSTL, isa.OpSTB, isa.OpFST:
		addr := ra + uint64(in.Imm)
		data := m.regs[in.Rd]
		info.IsMem, info.MemAddr = true, addr
		switch in.Op {
		case isa.OpSTQ, isa.OpFST:
			info.MemSize = 8
		case isa.OpSTL:
			info.MemSize = 4
		case isa.OpSTB:
			info.MemSize = 1
		}
		m.writeMem(addr, info.MemSize, data)

	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		var taken bool
		switch in.Op {
		case isa.OpBEQ:
			taken = ra == rb
		case isa.OpBNE:
			taken = ra != rb
		case isa.OpBLT:
			taken = int64(ra) < int64(rb)
		case isa.OpBGE:
			taken = int64(ra) >= int64(rb)
		case isa.OpBLTU:
			taken = ra < rb
		case isa.OpBGEU:
			taken = ra >= rb
		}
		info.Taken = taken
		if taken {
			next = in.BranchTarget(pc)
		}

	case isa.OpJ:
		info.Taken = true
		next = in.BranchTarget(pc)
	case isa.OpJAL:
		info.Taken = true
		m.writeReg(isa.RLR, pc+4)
		info.HasResult, info.Result = true, pc+4
		next = in.BranchTarget(pc)
	case isa.OpJR:
		info.Taken = true
		next = ra &^ 3
	case isa.OpJALR:
		info.Taken = true
		setInt(pc + 4)
		next = ra &^ 3

	case isa.OpFADD:
		setFP(fa + fb)
	case isa.OpFSUB:
		setFP(fa - fb)
	case isa.OpFMUL:
		setFP(fa * fb)
	case isa.OpFDIV:
		setFP(fa / fb)
	case isa.OpFSQRT:
		setFP(math.Sqrt(fa))
	case isa.OpFMOV:
		m.writeReg(in.Rd, ra)
		info.HasResult, info.Result = true, ra
	case isa.OpFNEG:
		bits := ra ^ (1 << 63)
		m.writeReg(in.Rd, bits)
		info.HasResult, info.Result = true, bits
	case isa.OpFABS:
		bits := ra &^ (1 << 63)
		m.writeReg(in.Rd, bits)
		info.HasResult, info.Result = true, bits
	case isa.OpFMIN:
		setFP(math.Min(fa, fb))
	case isa.OpFMAX:
		setFP(math.Max(fa, fb))
	case isa.OpCVTIF:
		setFP(float64(int64(ra)))
	case isa.OpCVTFI:
		setInt(uint64(f2i(fa)))
	case isa.OpFCLT:
		setInt(b2u(fa < fb))
	case isa.OpFCLE:
		setInt(b2u(fa <= fb))
	case isa.OpFCEQ:
		setInt(b2u(fa == fb))

	case isa.OpPUTC:
		m.output = append(m.output, byte(ra))
	case isa.OpHALT:
		m.halted = true
		info.Halted = true
		next = pc
	case isa.OpNOP, isa.OpInvalid:
		// Invalid encodings execute as no-ops: wrong-path fetch can run
		// into data, and hardware would squash before architectural effect.
	}

	m.PC = next
	info.NextPC = next
	return u
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// divS is signed division without traps: x/0 = 0, MinInt64 / -1 = MinInt64.
func divS(x, y int64) int64 {
	if y == 0 {
		return 0
	}
	if x == math.MinInt64 && y == -1 {
		return math.MinInt64
	}
	return x / y
}

// remS is signed remainder without traps: x%0 = x, MinInt64 % -1 = 0.
func remS(x, y int64) int64 {
	if y == 0 {
		return x
	}
	if x == math.MinInt64 && y == -1 {
		return 0
	}
	return x % y
}

// f2i converts float64 to int64 with saturating, NaN-safe semantics.
func f2i(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}
