package main

import "testing"

func TestJobMixGivesEveryLatencyKindAnEqualShare(t *testing.T) {
	share := map[string]int{}
	for _, m := range jobMix {
		share[latencyKind(m.Kind)] += m.Weight
	}
	if len(share) != len(latencyKinds) {
		t.Fatalf("mix covers kinds %v, want %v", share, latencyKinds)
	}
	for _, k := range latencyKinds {
		if share[k] != share[latencyKinds[0]] {
			t.Errorf("weights per latency kind %v are not equal", share)
		}
	}

	// The seeded plan draws the kinds in those shares and repeats per seed.
	const n = 2000
	a, b := newServicePlan(3), newServicePlan(3)
	got := map[string]int{}
	for i := 0; i < n; i++ {
		ja, jb := a.next(), b.next()
		if ja.Kind != jb.Kind || ja.Req.Benchmark != jb.Req.Benchmark || string(ja.Req.Source) != string(jb.Req.Source) {
			t.Fatalf("job %d differs between plans of the same seed", i)
		}
		got[latencyKind(ja.Kind)]++
	}
	for _, k := range latencyKinds {
		if got[k] < n/5 || got[k] > n*3/10 {
			t.Errorf("%s drawn %d times in %d, want about a quarter", k, got[k], n)
		}
	}
}

func TestCheckSampleCountsFailsShortKinds(t *testing.T) {
	full := make(samples, minKindSamples)
	lat := map[string]samples{"simulate": full, "program": full, "warm": full, "matrix": full}
	rep := &report{}
	checkSampleCounts(rep, lat)
	if rep.ops != 1 || rep.failed != 0 {
		t.Errorf("enough samples: ops %d failed %d", rep.ops, rep.failed)
	}
	lat["matrix"] = full[:minKindSamples-1]
	checkSampleCounts(rep, lat)
	if rep.ops != 2 || rep.failed != 1 {
		t.Errorf("one kind short: ops %d failed %d, want 2 and 1", rep.ops, rep.failed)
	}
}
