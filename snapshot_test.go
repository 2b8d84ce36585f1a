package prisim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"prisim/internal/core"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

// resultFingerprint flattens one Result for bytewise comparison.
func resultFingerprint(r *Result) string { return fmt.Sprintf("%+v", *r) }

// TestSnapshotsByteIdentical runs every policy family over two workloads
// through the Engine, whose points clone one warm snapshot per workload,
// and demands Results identical to a replay built here from the ooo
// primitives (fresh pipeline, fast-forward, run) — the clone-equals-replay
// contract at the Engine level.
func TestSnapshotsByteIdentical(t *testing.T) {
	pols := []core.Policy{
		core.PolicyBase, core.PolicyER, core.PolicyPRIRcCkpt,
		core.PolicyPRIRcLazy, core.PolicyPRIPlusER,
	}
	const ff, run = 2000, 8000
	r := NewEngine(WithBudget(ff, run), WithParallelism(4))
	for _, name := range []string{"gzip", "mcf"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		for _, pol := range pols {
			for _, width := range []int{4, 8} {
				cfg := machine(width).WithPolicy(pol)
				p := ooo.New(cfg, w.Build(0))
				p.FastForward(ff)
				p.Run(run)
				replay := buildResult(p, cfg, w.Name, w.Class == workloads.FP)

				got, want := resultFingerprint(mustRun(t, r, w, cfg)), resultFingerprint(replay)
				if got != want {
					t.Errorf("%s/w%d/%s: snapshot run differs from replay:\nreplay:   %s\nsnapshot: %s",
						name, width, pol.Name(), want, got)
				}
			}
		}
	}
	if st := r.CacheStats(); st.SnapshotBuilds != 2 {
		t.Errorf("SnapshotBuilds = %d, want 2 (one per workload)", st.SnapshotBuilds)
	}
}

// TestSnapshotCounters pins the accounting the benchmark record relies on:
// in a sweep of P points over W workloads, snapshot builds = W and snapshot
// hits = P - W, with or without concurrency.
func TestSnapshotCounters(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			r := NewEngine(WithBudget(2000, 4000), WithParallelism(workers))
			var ws []workloads.Workload
			for _, name := range []string{"gzip", "mcf", "vortex"} {
				w, ok := workloads.ByName(name)
				if !ok {
					t.Fatalf("workload %s missing", name)
				}
				ws = append(ws, w)
			}
			var cfgs []ooo.Config
			for _, pol := range []core.Policy{core.PolicyBase, core.PolicyPRIRcCkpt, core.PolicyPRIPlusER} {
				for _, width := range []int{4, 8} {
					cfgs = append(cfgs, machine(width).WithPolicy(pol))
				}
			}
			if _, err := r.grid(context.Background(), ws, cfgs...); err != nil {
				t.Fatal(err)
			}
			points := len(ws) * len(cfgs)

			st := r.CacheStats()
			if st.SnapshotBuilds != len(ws) {
				t.Errorf("SnapshotBuilds = %d, want %d (one per workload)", st.SnapshotBuilds, len(ws))
			}
			if want := points - len(ws); st.SnapshotHits != want {
				t.Errorf("SnapshotHits = %d, want %d (points - workloads)", st.SnapshotHits, want)
			}
			if st.SnapshotBytes == 0 {
				t.Error("SnapshotBytes = 0 with resident snapshots")
			}
			if st.Executed != points {
				t.Errorf("Executed = %d, want %d", st.Executed, points)
			}
		})
	}
}

// TestSnapshotKeySharing checks the keying boundaries: width and policy
// share a snapshot (fast-forward state is policy-independent), while a
// different memory configuration or fast-forward budget must not.
func TestSnapshotKeySharing(t *testing.T) {
	r := NewEngine(WithBudget(2000, 4000), WithParallelism(2))
	w, _ := workloads.ByName("gzip")

	mustRun(t, r, w, machine(4))
	mustRun(t, r, w, machine(8).WithPolicy(core.PolicyPRIPlusER))
	if st := r.CacheStats(); st.SnapshotBuilds != 1 || st.SnapshotHits != 1 {
		t.Errorf("width/policy points did not share one snapshot: %+v", st)
	}

	mshr := machine(4)
	mshr.Mem.MSHRs = 8
	mustRun(t, r, w, mshr)
	if st := r.CacheStats(); st.SnapshotBuilds != 2 {
		t.Errorf("different memsys config reused a snapshot: %+v", st)
	}

	mustRun(t, r.at(budget{ff: 1000}), w, machine(4))
	if st := r.CacheStats(); st.SnapshotBuilds != 3 {
		t.Errorf("different fast-forward budget reused a snapshot: %+v", st)
	}
}

// TestSnapshotEvictionBound floods the cache with more keys than
// maxSnapshots (via distinct fast-forward budgets) and checks the resident
// set stays bounded while every run still succeeds.
func TestSnapshotEvictionBound(t *testing.T) {
	r := NewEngine(WithBudget(1000, 1000), WithParallelism(2))
	w, _ := workloads.ByName("gzip")
	for i := 0; i < maxSnapshots+8; i++ {
		mustRun(t, r.at(budget{uint64(1000 + i), 1000}), w, machine(4))
	}
	r.s.snaps.mu.Lock()
	n, bytes := len(r.s.snaps.slots), r.s.snaps.bytes
	r.s.snaps.mu.Unlock()
	if n > maxSnapshots {
		t.Errorf("resident snapshots = %d, want <= %d", n, maxSnapshots)
	}
	if bytes == 0 {
		t.Error("resident bytes = 0 after eviction accounting")
	}
	st := r.CacheStats()
	if st.SnapshotBuilds != maxSnapshots+8 {
		t.Errorf("SnapshotBuilds = %d, want %d", st.SnapshotBuilds, maxSnapshots+8)
	}
}

// TestSnapshotGoldenFig8 regenerates the golden Figure 8 table on a
// parallel runner and checks the pinned hash — snapshots must not perturb a
// single byte of any table.
func TestSnapshotGoldenFig8(t *testing.T) {
	r := NewEngine(WithBudget(goldenBudget.ff, goldenBudget.run), WithParallelism(4))
	ts, err := r.fig8(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(ts[0].String()); got != goldenFig8Hash {
		t.Errorf("fig8 table with snapshots diverged from golden hash:\ngot  %s\nwant %s", got, goldenFig8Hash)
	}
	if st := r.CacheStats(); st.SnapshotHits == 0 {
		t.Errorf("golden fig8 sweep recorded no snapshot hits: %+v", st)
	}
}

// chainCost is the fast-forward work chained snapshot builds do when one
// workload's offsets are requested one after another: each offset costs its
// gap to the largest smaller offset requested before it, or the whole
// offset when there is none.
func chainCost(order []uint64) uint64 {
	var sum uint64
	for i, ff := range order {
		var base uint64
		for _, prev := range order[:i] {
			if prev < ff && prev > base {
				base = prev
			}
		}
		sum += ff - base
	}
	return sum
}

// waitUntil polls cond until it holds, failing the test with what after a
// generous deadline.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// snapSlot reports whether key has a slot in r's snapshot cache and
// whether a chained build has looked it up as its base (nearest marks the
// chosen slot used; an in-flight slot is otherwise unstamped).
func snapSlot(r *Engine, key snapKey) (present, used bool) {
	r.s.snaps.mu.Lock()
	defer r.s.snaps.mu.Unlock()
	s, ok := r.s.snaps.slots[key]
	return ok, ok && s.lastUse != 0
}

// TestSnapshotChainOrders asks one Engine for eight fast-forward offsets of
// one workload in ascending, descending and shuffled order, serially and
// all at once, on 1 and 4 workers. Whatever chain each build takes, every
// Result must be byte-identical to a cold Engine's at that offset alone,
// and each offset must still build exactly one snapshot.
func TestSnapshotChainOrders(t *testing.T) {
	w, _ := workloads.ByName("gzip")
	const run = 2000
	cfgs := []ooo.Config{machine(4), machine(4).WithPolicy(core.PolicyPRIRcCkpt)}
	asc := make([]uint64, 8)
	for i := range asc {
		asc[i] = uint64(i+1) * 1000
	}
	desc := make([]uint64, len(asc))
	for i, ff := range asc {
		desc[len(asc)-1-i] = ff
	}
	shuffled := make([]uint64, len(asc))
	for i, k := range rand.New(rand.NewSource(1)).Perm(len(asc)) {
		shuffled[i] = asc[k]
	}

	want := make(map[uint64][]string)
	for _, ff := range asc {
		cold := NewEngine(WithBudget(ff, run), WithParallelism(1))
		for _, cfg := range cfgs {
			want[ff] = append(want[ff], resultFingerprint(mustRun(t, cold, w, cfg)))
		}
	}

	for _, order := range []struct {
		name string
		ffs  []uint64
	}{{"ascending", asc}, {"descending", desc}, {"shuffled", shuffled}} {
		for _, workers := range []int{1, 4} {
			for _, concurrent := range []bool{false, true} {
				mode := "serial"
				if concurrent {
					mode = "concurrent"
				}
				t.Run(fmt.Sprintf("%s/workers%d/%s", order.name, workers, mode), func(t *testing.T) {
					// A deadlocked pool fails the requests at the deadline
					// instead of hanging the test binary.
					ctx, cancel := context.WithTimeout(bg, time.Minute)
					defer cancel()
					r := NewEngine(WithBudget(order.ffs[0], run), WithParallelism(workers))
					got := make([][]*Result, len(order.ffs))
					request := func(i int) error {
						res, err := r.at(budget{ff: order.ffs[i]}).grid(ctx, []workloads.Workload{w}, cfgs...)
						if err == nil {
							got[i] = res[0]
						}
						return err
					}
					var err error
					if concurrent {
						err = fanOut(len(order.ffs), request)
					} else {
						for i := range order.ffs {
							if err = request(i); err != nil {
								break
							}
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					for i, ff := range order.ffs {
						for j, cfg := range cfgs {
							if g := resultFingerprint(got[i][j]); g != want[ff][j] {
								t.Errorf("ff=%d %s: chained Result differs from a cold Engine's:\ncold:    %s\nchained: %s",
									ff, cfg.Rename.Policy.Name(), want[ff][j], g)
							}
						}
					}
					st := r.CacheStats()
					if st.SnapshotBuilds != len(asc) {
						t.Errorf("SnapshotBuilds = %d, want %d (one per offset)", st.SnapshotBuilds, len(asc))
					}
					if !concurrent && st.SnapshotFFInstructions != chainCost(order.ffs) {
						t.Errorf("SnapshotFFInstructions = %d, want %d", st.SnapshotFFInstructions, chainCost(order.ffs))
					}
				})
			}
		}
	}
}

// TestSnapshotFFInstructions pins the fast-forward work counter: ascending
// offsets 1k, 2k, 3k chain, so they execute 3k instructions, not 6k; a
// repeated offset is a snapshot hit and executes nothing.
func TestSnapshotFFInstructions(t *testing.T) {
	r := NewEngine(WithBudget(1000, 1000), WithParallelism(2))
	w, _ := workloads.ByName("gzip")
	for _, ff := range []uint64{1000, 2000, 3000, 2000} {
		mustRun(t, r.at(budget{ff: ff}), w, machine(4))
	}
	st := r.CacheStats()
	if st.SnapshotFFInstructions != 3000 {
		t.Errorf("SnapshotFFInstructions = %d, want 3000", st.SnapshotFFInstructions)
	}
	if st.SnapshotBuilds != 3 || st.SnapshotHits != 0 {
		t.Errorf("SnapshotBuilds, SnapshotHits = %d, %d, want 3, 0", st.SnapshotBuilds, st.SnapshotHits)
	}
}

// TestSnapshotChainWaitsWithoutSlot is the 1-worker deadlock guard: a build
// whose base is still queued for the only pool slot must wait for it while
// holding no slot. Waiting while holding the slot would leave the base's
// owner queued forever.
func TestSnapshotChainWaitsWithoutSlot(t *testing.T) {
	r := NewEngine(WithBudget(1000, 1000), WithParallelism(1))
	w, _ := workloads.ByName("gzip")
	cfg := machine(4)
	later := r.at(budget{ff: 2000})

	// Hold the only slot so the 1000 build's owner queues for it.
	if err := r.acquire(bg); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { _, err := r.run(bg, w, cfg); errs <- err }()
	base := r.snapshotKey(w, cfg)
	waitUntil(t, "the 1000 build is in flight", func() bool { ok, _ := snapSlot(r, base); return ok })
	go func() { _, err := later.run(bg, w, cfg); errs <- err }()
	waitUntil(t, "the 2000 build waits on the queued 1000 build before taking a slot",
		func() bool { _, used := snapSlot(r, base); return used })
	r.release()

	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("chained build deadlocked the 1-worker pool")
		}
	}
	if st := r.CacheStats(); st.SnapshotFFInstructions != 2000 {
		t.Errorf("SnapshotFFInstructions = %d, want 2000 (the 2000 build chained from 1000)", st.SnapshotFFInstructions)
	}
}

// TestSnapshotChainBaseCancelled cancels the owner of a chained build's
// in-flight base: the chained build must not fail with it, but rescan and
// complete from the next-nearest base, with a Result identical to a cold
// Engine's.
func TestSnapshotChainBaseCancelled(t *testing.T) {
	r := NewEngine(WithBudget(1000, 1000), WithParallelism(1))
	w, _ := workloads.ByName("gzip")
	cfg := machine(4)
	mid, top := r.at(budget{ff: 2000}), r.at(budget{ff: 3000})
	mustRun(t, r, w, cfg) // a completed snapshot at 1000: the fallback base

	if err := r.acquire(bg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	midErr := make(chan error, 1)
	go func() { _, err := mid.run(ctx, w, cfg); midErr <- err }()
	midKey := mid.snapshotKey(w, cfg)
	waitUntil(t, "the 2000 build is in flight", func() bool { ok, _ := snapSlot(r, midKey); return ok })
	topRes := make(chan *Result, 1)
	topErr := make(chan error, 1)
	go func() {
		res, err := top.run(bg, w, cfg)
		topRes <- res
		topErr <- err
	}()
	waitUntil(t, "the 3000 build waits on the 2000 build",
		func() bool { _, used := snapSlot(r, midKey); return used })
	cancel()
	if err := <-midErr; err != context.Canceled {
		t.Fatalf("cancelled base error = %v, want context.Canceled", err)
	}
	r.release()

	select {
	case err := <-topErr:
		if err != nil {
			t.Fatalf("chained build failed with its cancelled base: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("chained build never completed after its base was cancelled")
	}
	cold := mustRun(t, NewEngine(WithBudget(3000, 1000), WithParallelism(1)), w, cfg)
	if got, want := resultFingerprint(<-topRes), resultFingerprint(cold); got != want {
		t.Errorf("chained Result differs from a cold Engine's:\ncold:    %s\nchained: %s", want, got)
	}
	st := r.CacheStats()
	if st.SnapshotBuilds != 2 || st.SnapshotFFInstructions != 3000 {
		t.Errorf("SnapshotBuilds, SnapshotFFInstructions = %d, %d, want 2, 3000 (3000 chained from 1000)",
			st.SnapshotBuilds, st.SnapshotFFInstructions)
	}
}
