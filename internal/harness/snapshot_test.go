package harness

import (
	"context"
	"fmt"
	"testing"

	"prisim/internal/core"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

// resultFingerprint flattens one Result for bytewise comparison.
func resultFingerprint(r *Result) string { return fmt.Sprintf("%+v", *r) }

// TestSnapshotsByteIdentical runs every policy family over two workloads
// through the Runner, whose points clone one warm snapshot per workload,
// and demands Results identical to a replay built here from the ooo
// primitives (fresh pipeline, fast-forward, run) — the clone-equals-replay
// contract at the harness level.
func TestSnapshotsByteIdentical(t *testing.T) {
	pols := []core.Policy{
		core.PolicyBase, core.PolicyER, core.PolicyPRIRcCkpt,
		core.PolicyPRIRcLazy, core.PolicyPRIPlusER,
	}
	b := Budget{FastForward: 2000, Run: 8000}
	r := NewParallelRunner(b, 4)
	for _, name := range []string{"gzip", "mcf"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		for _, pol := range pols {
			for _, width := range []int{4, 8} {
				cfg := machine(width).WithPolicy(pol)
				p := ooo.New(cfg, w.Build(0))
				p.FastForward(b.FastForward)
				p.Run(b.Run)
				replay := buildResult(p, w.Class == workloads.FP)
				replay.Bench, replay.Config, replay.Policy = w.Name, cfg.Name, pol.Name()

				got, want := resultFingerprint(r.Run(w, cfg)), resultFingerprint(replay)
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
			r := NewParallelRunner(Budget{FastForward: 2000, Run: 4000}, workers)
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
	r := NewParallelRunner(Budget{FastForward: 2000, Run: 4000}, 2)
	w, _ := workloads.ByName("gzip")

	r.Run(w, machine(4))
	r.Run(w, machine(8).WithPolicy(core.PolicyPRIPlusER))
	if st := r.CacheStats(); st.SnapshotBuilds != 1 || st.SnapshotHits != 1 {
		t.Errorf("width/policy points did not share one snapshot: %+v", st)
	}

	mshr := machine(4)
	mshr.Mem.MSHRs = 8
	r.Run(w, mshr)
	if st := r.CacheStats(); st.SnapshotBuilds != 2 {
		t.Errorf("different memsys config reused a snapshot: %+v", st)
	}

	r.WithBudget(Budget{FastForward: 1000}).Run(w, machine(4))
	if st := r.CacheStats(); st.SnapshotBuilds != 3 {
		t.Errorf("different fast-forward budget reused a snapshot: %+v", st)
	}
}

// TestSnapshotEvictionBound floods the cache with more keys than
// maxSnapshots (via distinct fast-forward budgets) and checks the resident
// set stays bounded while every run still succeeds.
func TestSnapshotEvictionBound(t *testing.T) {
	r := NewParallelRunner(Budget{FastForward: 1000, Run: 1000}, 2)
	w, _ := workloads.ByName("gzip")
	for i := 0; i < maxSnapshots+8; i++ {
		r.WithBudget(Budget{FastForward: uint64(1000 + i), Run: 1000}).Run(w, machine(4))
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
	r := NewParallelRunner(goldenBudget, 4)
	tbl, err := r.Fig8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(tbl.String()); got != goldenFig8Hash {
		t.Errorf("fig8 table with snapshots diverged from golden hash:\ngot  %s\nwant %s", got, goldenFig8Hash)
	}
	if st := r.CacheStats(); st.SnapshotHits == 0 {
		t.Errorf("golden fig8 sweep recorded no snapshot hits: %+v", st)
	}
}
