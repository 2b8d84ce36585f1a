// Package ooo implements the execution-driven out-of-order timing model:
// the 12-stage pipeline of the paper's Figure 5
//
//	Fetch Decode Rename Queue Sched Disp Disp RF RF Exe Retire Commit
//
// with speculative scheduling and selective replay, a finite physical
// register file managed by internal/core (where physical register inlining
// lives), wrong-path fetch backed by the functional emulator's rollback,
// checkpointed rename maps, a load/store queue with store-to-load
// forwarding, and the Table 1 branch predictor and cache hierarchy.
package ooo

import (
	"errors"
	"fmt"

	"prisim/internal/bpred"
	"prisim/internal/core"
	"prisim/internal/isa"
	"prisim/internal/memsys"
)

// Config describes one machine configuration (the paper's Table 1).
type Config struct {
	Name  string
	Width int // fetch/rename/issue/commit width

	ROBSize   int
	LSQSize   int
	SchedSize int

	Rename core.Params
	Bpred  bpred.Config
	Mem    memsys.Config

	// FUCount is the number of functional units per class.
	FUCount [isa.NumFUClasses]int

	// SchedToExec is the select-to-execute depth (Disp Disp RF RF = 4).
	SchedToExec int
	// FrontDepth is the fetch-to-rename depth (Fetch Decode = 2).
	FrontDepth int

	// ConservativeDisambiguation makes loads wait for every older store
	// address instead of using oracle memory disambiguation (ablation).
	ConservativeDisambiguation bool

	// InlineAtRename extends PRI with the paper's Section 6 future-work
	// idea: a load-immediate of a narrow value is inlined at rename and
	// never allocates a physical register.
	InlineAtRename bool

	// DelayedAllocation models the paper's other Section 6 direction, the
	// virtual-physical register scheme [7,17]: rename hands out unbounded
	// virtual tags (no rename stall on registers) and a physical register
	// is bound only at writeback, which stalls when all IntPRs/FPPRs
	// physical registers hold live values. The ROB head is exempt (the
	// reserved-register deadlock-avoidance rule). Composes with PRI: a
	// narrow result that inlines into the map never binds a register.
	DelayedAllocation bool

	// WatchdogCycles aborts the simulation if no instruction commits for
	// this many cycles (a model deadlock); 0 uses a generous default.
	WatchdogCycles uint64
}

// Width4 returns the paper's 4-wide "current generation" machine: 512 ROB,
// 256 LSQ, 32-entry scheduler, 64+64 physical registers, 7-bit narrow
// budget.
func Width4() Config {
	return Config{
		Name:      "width4",
		Width:     4,
		ROBSize:   512,
		LSQSize:   256,
		SchedSize: 32,
		Rename: core.Params{
			IntPRs: 64, FPPRs: 64,
			IntNarrowBits: 7,
			FPInline:      true,
		},
		Bpred:       bpred.Default(),
		Mem:         memsys.Default(),
		FUCount:     [isa.NumFUClasses]int{4, 1, 2, 2, 1},
		SchedToExec: 4,
		FrontDepth:  2,
	}
}

// Width8 returns the paper's 8-wide "future" machine: 512-entry scheduler
// (effectively unbounded, matching the ROB) and a 10-bit narrow budget.
func Width8() Config {
	cfg := Width4()
	cfg.Name = "width8"
	cfg.Width = 8
	cfg.SchedSize = 512
	cfg.Rename.IntNarrowBits = 10
	cfg.FUCount = [isa.NumFUClasses]int{8, 2, 4, 4, 2}
	return cfg
}

// WithPolicy returns a copy of cfg running the given release policy.
func (c Config) WithPolicy(p core.Policy) Config {
	c.Rename.Policy = p
	return c
}

// WithPRs returns a copy of cfg with both physical register files resized
// (the Figure 9 sensitivity axis).
func (c Config) WithPRs(n int) Config {
	c.Rename.IntPRs = n
	c.Rename.FPPRs = n
	return c
}

// Check reports why the pipeline cannot simulate c: a nonpositive
// structure size, rename parameters core rejects, or a functional-unit
// class with no units. It returns nil for a simulable machine.
func (c Config) Check() error {
	if c.Width <= 0 || c.ROBSize <= 0 || c.LSQSize <= 0 || c.SchedSize <= 0 {
		return errors.New("ooo: nonpositive structure size")
	}
	if err := c.Rename.Check(); err != nil {
		return err
	}
	for cl, n := range c.FUCount {
		if n <= 0 {
			return fmt.Errorf("ooo: no functional units of class %v", isa.FUClass(cl))
		}
	}
	return nil
}

// validate panics with Check's message on a machine the pipeline cannot
// simulate, then resolves c's derived and defaulted fields.
func (c *Config) validate() {
	if err := c.Check(); err != nil {
		panic(err.Error())
	}
	if c.DelayedAllocation {
		// Virtual tags are unbounded; the physical bound moves to the
		// writeback gate, which reads IntPRs/FPPRs from the rename params.
		c.Rename.Policy.Infinite = true
	}
	if c.SchedToExec < 1 {
		c.SchedToExec = 1
	}
	if c.FrontDepth < 1 {
		c.FrontDepth = 1
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = 200_000
	}
}
