package prisim

import (
	"context"
	"math/rand"
	"testing"

	"prisim/internal/core"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

// sweepRunPerPoint is the measured budget per sweep point in
// BenchmarkSweepFig8Mix, the budget BENCH_harness.json's points/s floor
// was recorded at.
const sweepRunPerPoint = 8000

// sweepFig8MixConfigs is the gate's fig8-shaped config axis: 4 rename
// policies × both widths, run over every integer workload, so one
// fast-forward snapshot per workload serves its 7 sibling points.
func sweepFig8MixConfigs() []ooo.Config {
	pols := []core.Policy{core.PolicyBase, core.PolicyER, core.PolicyPRIRcCkpt, core.PolicyPRIPlusER}
	var cfgs []ooo.Config
	for _, width := range []int{4, 8} {
		for _, pol := range pols {
			cfgs = append(cfgs, machine(width).WithPolicy(pol))
		}
	}
	return cfgs
}

// BenchmarkSweepFig8Mix measures end-to-end sweep throughput — points per
// wall-clock second — of a cold fig8-mix sweep with the snapshot layer
// enabled. Each iteration builds a fresh Engine so every point's pipeline
// construction, snapshot build or clone, and measured run all land inside
// the timed region; nothing is served from a previous iteration's caches.
// CI gates the best of three iterations at a fraction of
// BENCH_harness.json's acceptance.sweep_points_per_sec_floor (make
// sweepgate, via cmd/benchgate).
func BenchmarkSweepFig8Mix(b *testing.B) {
	ctx := context.Background()
	ws, cfgs := suite(workloads.Int), sweepFig8MixConfigs()
	points := len(ws) * len(cfgs)
	for i := 0; i < b.N; i++ {
		r := NewEngine(WithBudget(DefaultFastForward, sweepRunPerPoint))
		if _, err := r.grid(ctx, ws, cfgs...); err != nil {
			b.Fatal(err)
		}
		if cs := r.CacheStats(); cs.SnapshotHits != points-len(ws) {
			b.Fatalf("snapshot hits = %d, want points-workloads = %d",
				cs.SnapshotHits, points-len(ws))
		}
	}
	b.ReportMetric(float64(points)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSampledSnapshots measures sampled-simulation throughput — points
// per wall-clock second — on one workload skipped to 8 fast-forward offsets
// 60k apart, each measured for a 4k window under base and PRI-rc-ckpt at
// 4-wide. The offsets are requested in a fixed shuffled order, one offset's
// points at a time, on a fresh Engine per iteration. It fails when snapshot
// builds fast-forward more than chaining allows: each offset's gap to the
// nearest smaller offset requested before it.
func BenchmarkSampledSnapshots(b *testing.B) {
	const offsets, stride, window = 8, 60_000, 4_000
	ctx := context.Background()
	w, _ := workloads.ByName("gzip")
	ws := []workloads.Workload{w}
	cfgs := []ooo.Config{machine(4), machine(4).WithPolicy(core.PolicyPRIRcCkpt)}
	order := make([]uint64, offsets)
	for i, k := range rand.New(rand.NewSource(1)).Perm(offsets) {
		order[i] = uint64(k+1) * stride
	}
	bound := chainCost(order)
	for i := 0; i < b.N; i++ {
		r := NewEngine(WithBudget(order[0], window))
		for _, ff := range order {
			if _, err := r.at(budget{ff: ff}).grid(ctx, ws, cfgs...); err != nil {
				b.Fatal(err)
			}
		}
		if cs := r.CacheStats(); cs.SnapshotFFInstructions > bound {
			b.Fatalf("snapshot builds fast-forwarded %d instructions, want at most %d (the chained gaps)",
				cs.SnapshotFFInstructions, bound)
		}
	}
	b.ReportMetric(float64(offsets*len(cfgs)*b.N)/b.Elapsed().Seconds(), "points/s")
}
