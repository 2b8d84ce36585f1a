package prisim

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
// documents why). The Engine therefore fast-forwards each workload once,
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
//
// Snapshots of one workload at several budgets chain: a build starts from
// the cached or in-flight snapshot with the same workload, memory and
// predictor configs and the largest smaller budget, and fast-forwards only
// the gap, so sampling one workload at many offsets costs as much
// fast-forward as its largest offset. A chained build equals a build from
// instruction 0 because a clone equals the replay it was captured from,
// FastForward touches only the machine, predictor and caches a WarmState
// captures, and a halted machine fast-forwards as a no-op.

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
func (e *Engine) snapshotKey(w workloads.Workload, cfg ooo.Config) snapKey {
	return snapKey{bench: w.Name, ff: e.budget.ff, mem: cfg.Mem, bp: cfg.Bpred}
}

// warmFor returns the warm fast-forward state for (w, cfg), building it on
// first request and sharing it afterwards. It returns (nil, nil) when there
// is nothing to fast-forward.
func (e *Engine) warmFor(ctx context.Context, w workloads.Workload, cfg ooo.Config) (*ooo.WarmState, error) {
	if e.budget.ff == 0 {
		return nil, nil
	}
	key := e.snapshotKey(w, cfg)
	return e.s.snaps.do(ctx, key,
		func() (*ooo.WarmState, error) { return e.buildSnapshot(ctx, w, cfg, key) })
}

// buildSnapshot fast-forwards one workload to key.ff inside a worker-pool
// slot and captures the warm state, starting from the nearest earlier
// snapshot of the same workload when one exists. It waits for that base
// before taking a slot: the base's owner may itself be queued for one, and
// on a 1-worker pool waiting while holding the slot would deadlock.
func (e *Engine) buildSnapshot(ctx context.Context, w workloads.Workload, cfg ooo.Config, key snapKey) (*ooo.WarmState, error) {
	base, chained, err := e.s.snaps.nearest(ctx, func(k snapKey) uint64 {
		if k.bench != key.bench || k.mem != key.mem || k.bp != key.bp || k.ff >= key.ff {
			return 0
		}
		return k.ff
	})
	if err != nil {
		return nil, err
	}

	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	defer e.release()

	var p *ooo.Pipeline
	if chained {
		p = ooo.NewFromWarm(cfg, base)
	} else {
		p = ooo.New(cfg, w.Build(0))
	}
	// A base that halted early has executed fewer instructions than its
	// budget; the rest of the gap is then a no-op on the halted machine.
	start := p.Machine().Seq()
	err = runChunked(ctx, p.FastForward, key.ff-start, nil)
	e.s.ffInstrs.Add(p.Machine().Seq() - start)
	if err != nil {
		return nil, err
	}
	return p.CaptureWarm(), nil
}
