// Package core implements the paper's contribution: register renaming with
// physical register inlining (PRI), plus the prior-work early-release (ER)
// scheme it is compared against and combined with.
//
// The rename map is a RAM table (one entry per architected register) whose
// entries support two addressing modes: *register* (a pointer into the
// physical register file) and *immediate* (a narrow value inlined directly
// into the entry). When a retiring instruction's result fits the narrow
// budget, the value is written into the map entry and the physical register
// is released long before the conventional release point — subject to the
// WAR/WAW guards of Sections 3.2-3.4 of the paper, all of which are modeled
// here:
//
//   - duplicate-tolerant free list (generation-tagged deallocation),
//   - WAW check before the late map update (Figure 7),
//   - reader reference counts or ideal payload fix-up against the stale
//     pointer WAR violation (Figure 6),
//   - checkpoint reference counts or lazy checkpoint patching against stale
//     pointers in shadow maps.
package core

import (
	"fmt"

	"prisim/internal/isa"
)

// Policy selects the register release scheme. The zero value is the
// conventional baseline: release a physical register when the next writer
// of the same architected register commits.
type Policy struct {
	// PRI enables physical register inlining at retire.
	PRI bool
	// IdealFixup models the paper's "ideal" PRI variant: an associative
	// payload-RAM update converts in-flight stale consumers to immediates
	// instantly, so a reader reference count never delays the free. When
	// false, PRI uses the reference-counting scheme.
	IdealFixup bool
	// CkptRefCount selects the checkpoint reference counting scheme for
	// stale pointers in shadow maps; false selects the lazy checkpoint
	// update scheme. Only meaningful with PRI.
	CkptRefCount bool
	// ER enables prior-work early release (Moudgill et al.): a register is
	// freed once it is complete, unmapped in the current and all
	// checkpointed maps, and has no outstanding readers.
	ER bool
	// Infinite removes the physical register file bound entirely (the
	// paper's idealized "Inf Physical Register" configuration).
	Infinite bool
}

// usesCkptRefs reports whether checkpoints pin the registers they name.
func (p Policy) usesCkptRefs() bool { return p.ER || (p.PRI && p.CkptRefCount) }

// Name returns the paper's label for the policy. Combinations that arise
// from the virtual-physical extension (unbounded allocation plus PRI) get
// compound names so they stay distinguishable in experiment caches.
func (p Policy) Name() string {
	switch {
	case p.Infinite && p.PRI:
		return "infpr+pri"
	case p.Infinite && p.ER:
		return "infpr+er"
	case p.Infinite:
		return "infpr"
	case p.PRI && p.ER && p.CkptRefCount:
		return "pri+er"
	case p.PRI && p.ER:
		return "pri+er-lazy"
	case p.PRI && p.IdealFixup && p.CkptRefCount:
		return "pri-ideal-ckpt"
	case p.PRI && p.IdealFixup:
		return "pri-ideal-lazy"
	case p.PRI && p.CkptRefCount:
		return "pri-rc-ckpt"
	case p.PRI:
		return "pri-rc-lazy"
	case p.ER:
		return "er"
	}
	return "base"
}

// Named policies matching the bars of Figures 10 and 12.
var (
	PolicyBase         = Policy{}
	PolicyER           = Policy{ER: true}
	PolicyPRIRcCkpt    = Policy{PRI: true, CkptRefCount: true}
	PolicyPRIRcLazy    = Policy{PRI: true}
	PolicyPRIIdealCkpt = Policy{PRI: true, IdealFixup: true, CkptRefCount: true}
	PolicyPRIIdealLazy = Policy{PRI: true, IdealFixup: true}
	PolicyPRIPlusER    = Policy{PRI: true, CkptRefCount: true, ER: true}
	PolicyInfinite     = Policy{Infinite: true}
)

// AllPolicies lists the seven evaluated schemes in the paper's bar order.
var AllPolicies = []Policy{
	PolicyER,
	PolicyPRIRcCkpt,
	PolicyPRIRcLazy,
	PolicyPRIIdealCkpt,
	PolicyPRIIdealLazy,
	PolicyPRIPlusER,
	PolicyInfinite,
}

// Params sizes the rename machinery.
type Params struct {
	IntPRs int // integer physical registers (≥ 32)
	FPPRs  int // floating-point physical registers (≥ 32)
	// IntNarrowBits is the widest integer value (in significant bits,
	// two's complement) that may be inlined into a map entry: 7 for the
	// paper's 4-wide model, 10 for the 8-wide model.
	IntNarrowBits int
	// FPInline enables inlining FP values whose bit pattern is all zeroes
	// or all ones.
	FPInline bool
	Policy   Policy
}

// DefaultParams is the paper's 4-wide configuration: 64+64 physical
// registers and a 7-bit narrow budget.
func DefaultParams() Params {
	return Params{IntPRs: 64, FPPRs: 64, IntNarrowBits: 7, FPInline: true}
}

// Check reports why p cannot drive a renamer: renaming needs at least one
// physical register per architected register, and a narrow budget within
// a 64-bit word. It returns nil for sensible parameters.
func (p Params) Check() error {
	if p.IntPRs < isa.NumIntRegs {
		return fmt.Errorf("core: IntPRs must be at least %d (one per architected register), got %d", isa.NumIntRegs, p.IntPRs)
	}
	if p.FPPRs < isa.NumFPRegs {
		return fmt.Errorf("core: FPPRs must be at least %d (one per architected register), got %d", isa.NumFPRegs, p.FPPRs)
	}
	if p.IntNarrowBits < 0 || p.IntNarrowBits > 64 {
		return fmt.Errorf("core: IntNarrowBits must be in [0, 64], got %d", p.IntNarrowBits)
	}
	return nil
}

// Validate panics with Check's message on nonsensical parameters.
func (p Params) Validate() {
	if err := p.Check(); err != nil {
		panic(err.Error())
	}
}
