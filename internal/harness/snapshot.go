package harness

import (
	"context"

	"prisim/internal/bpred"
	"prisim/internal/memsys"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

// Fast-forward snapshot cache. Every point of a sweep replays the same
// functional fast-forward even though that warm-up state is provably
// independent of the rename policy under measurement (ooo.WarmState
// documents why). The Runner therefore fast-forwards each workload once,
// captures the warm machine/predictor/cache state, and constructs every
// later pipeline for that workload from a copy-on-write clone.
//
// Snapshots are keyed by (workload identity, fast-forward budget, memory
// config, predictor config) — everything FastForward's outcome depends on —
// and never by policy, width, or register-file size, so one snapshot serves
// a whole policy/width/PR sweep. The cache is singleflight-guarded: one
// caller builds while concurrent callers for the same key wait, and the
// build holds a worker-pool slot only while it runs (waiters hold nothing,
// so waiting cannot deadlock the pool).

// maxSnapshots bounds resident warm states; least-recently-used completed
// entries are evicted beyond it. An evicted snapshot still referenced by
// in-flight runs stays alive until they finish (it is immutable), so
// SnapshotBytes tracks the cache's view, not total process residency.
const maxSnapshots = 32

// snapKey identifies one warm fast-forward image.
type snapKey struct {
	bench string
	ff    uint64
	mem   memsys.Config
	bp    bpred.Config
}

// snapshotKey derives the cache key for one run: the workload plus every
// configuration axis that influences fast-forward state.
func (r *Runner) snapshotKey(w workloads.Workload, cfg ooo.Config) snapKey {
	return snapKey{bench: w.Name, ff: r.Budget.FastForward, mem: cfg.Mem, bp: cfg.Bpred}
}

// warmFor returns the warm fast-forward state for (w, cfg), building it on
// first request and sharing it afterwards. It returns (nil, nil) when there
// is nothing to fast-forward.
func (r *Runner) warmFor(ctx context.Context, w workloads.Workload, cfg ooo.Config) (*ooo.WarmState, error) {
	if r.Budget.FastForward == 0 {
		return nil, nil
	}
	return r.s.snaps.do(ctx, r.snapshotKey(w, cfg),
		func() (*ooo.WarmState, error) { return r.buildSnapshot(ctx, w, cfg) }, nil)
}

// buildSnapshot fast-forwards one workload inside a worker-pool slot and
// captures the warm state. The slot is held only for the build; waiters in
// warmFor hold no slot.
func (r *Runner) buildSnapshot(ctx context.Context, w workloads.Workload, cfg ooo.Config) (*ooo.WarmState, error) {
	if err := r.acquire(ctx); err != nil {
		return nil, err
	}
	defer r.release()

	p := ooo.New(cfg, w.Build(0))
	if err := runChunked(ctx, p.FastForward, r.Budget.FastForward); err != nil {
		return nil, err
	}
	return p.CaptureWarm(), nil
}
