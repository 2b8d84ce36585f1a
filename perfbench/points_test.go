package main

import (
	"context"
	"testing"

	"prisim"
)

func TestOrderRowsIsSeededAndKeepsBenchmarksTogether(t *testing.T) {
	pts := sweepPoints()
	a, b := orderRows(pts, 1), orderRows(pts, 1)
	if len(a) != len(pts) || len(pts) != 104 {
		t.Fatalf("%d points, want 104", len(a))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatal("same seed, different order")
		}
	}
	keys := map[string]bool{}
	finished := map[string]bool{} // benchmarks whose run of points has ended
	for i, p := range a {
		keys[p.Key] = true
		if i > 0 && p.Opts.Benchmark != a[i-1].Opts.Benchmark {
			finished[a[i-1].Opts.Benchmark] = true
		}
		if finished[p.Opts.Benchmark] {
			t.Fatalf("benchmark %s split apart", p.Opts.Benchmark)
		}
	}
	if len(keys) != len(pts) {
		t.Fatal("points lost or duplicated")
	}
	differs := false
	for s := int64(2); s < 6 && !differs; s++ {
		c := orderRows(pts, s)
		for i := range a {
			differs = differs || a[i].Key != c[i].Key
		}
	}
	if !differs {
		t.Error("the seed never changes the order")
	}
}

func TestPRIGainPairsBaseAndPRIPerOffset(t *testing.T) {
	mk := func(bench string, ff uint64, pol prisim.Policy) enginePoint {
		return enginePoint{Opts: prisim.Options{Benchmark: bench, Width: 4, Policy: pol, FastForward: ff}}
	}
	pts := []enginePoint{
		mk("gzip", 1, prisim.PolicyBase), mk("gzip", 1, prisim.PolicyPRI),
		mk("gzip", 2, prisim.PolicyBase), mk("gzip", 2, prisim.PolicyPRI),
		mk("swim", 1, prisim.PolicyBase), mk("swim", 1, prisim.PolicyPRI), // fp: not in Figure 10
		mk("mcf", 1, prisim.PolicyER),
	}
	res := []prisim.Result{{IPC: 1}, {IPC: 1.1}, {IPC: 2}, {IPC: 2.1}, {IPC: 1}, {IPC: 9}, {IPC: 5}}
	gain, pairs := priGainPct(pts, res)
	if pairs != 2 || gain < 7.4999 || gain > 7.5001 {
		t.Errorf("gain %g over %d pairs, want 7.5 over 2", gain, pairs)
	}
	if gap := priGapPP(gain); gap < 0.1999 || gap > 0.2001 {
		t.Errorf("gap %g, want 0.2", gap)
	}

	// The seed reorders points; the gain must not move by even one ulp.
	all := sampledPoints()
	res = make([]prisim.Result, len(all))
	for i := range all {
		res[i].IPC = 1 + float64(i%7)/3 + float64(i)/997
	}
	byKey := map[string]prisim.Result{}
	for i, p := range all {
		byKey[p.Key] = res[i]
	}
	want, _ := priGainPct(all, res)
	for seed := int64(1); seed <= 5; seed++ {
		ord := orderRows(all, seed)
		ordRes := make([]prisim.Result, len(ord))
		for i, p := range ord {
			ordRes[i] = byKey[p.Key]
		}
		if got, _ := priGainPct(ord, ordRes); got != want {
			t.Errorf("seed %d: gain %v, in suite order %v", seed, got, want)
		}
	}
}

// The traced replay drives the layers directly; it must reproduce the
// Engine's results byte for byte, or its per-layer times describe some
// other computation.
func TestTracedReplayMatchesEngine(t *testing.T) {
	var pts []enginePoint
	for _, bench := range []string{"gzip", "swim"} {
		for _, pol := range []prisim.Policy{prisim.PolicyBase, prisim.PolicyPRI} {
			for _, width := range []int{4, 8} {
				o := prisim.Options{Benchmark: bench, Width: width, Policy: pol, FastForward: 3000, Run: 2000}
				pts = append(pts, enginePoint{Key: pointKey(o), Opts: o})
			}
		}
	}
	eng := prisim.NewEngine(prisim.WithParallelism(2))
	tr := &tracer{}
	got, tot, err := tracedReplay(tr, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		want, err := eng.Simulate(context.Background(), p.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := sameResult(want, got[i]); !ok {
			t.Errorf("%s: %s", p.Key, diff)
		}
	}
	if tot.Builds != 2 || tot.Clones != len(pts) || tot.FFInstrs != 2*3000 {
		t.Errorf("totals %+v: want one warm state per benchmark", tot)
	}
	// snapshot.hits reports the Engine's count: points that reused a warm
	// state, which excludes the point that built it.
	if cs := eng.CacheStats(); cs.SnapshotBuilds != tot.Builds || cs.SnapshotHits != len(pts)-tot.Builds {
		t.Errorf("engine built %d snapshots and hit %d, replay built %d for %d points",
			cs.SnapshotBuilds, cs.SnapshotHits, tot.Builds, len(pts))
	}
}

func TestEngineSetupIsTimedInProcess(t *testing.T) {
	s := measureEngineSetup(config{nproc: 2, seed: 1}, sweepPoints())
	if len(s) != engineSetupRuns {
		t.Fatalf("%d set-ups, want %d", len(s), engineSetupRuns)
	}
	for _, v := range s {
		if v <= 0 || v > 1 {
			t.Fatalf("set-up took %gs", v)
		}
	}
}
