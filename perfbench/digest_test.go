package main

import (
	"math"
	"strings"
	"testing"

	"prisim"
	"prisim/prisimclient"
)

func TestSameResultIsByteExact(t *testing.T) {
	a := prisim.Result{Benchmark: "gzip", IPC: 1.25, Committed: 80000}
	b := a
	if ok, diff := sameResult(a, b); !ok {
		t.Fatalf("identical results differ: %s", diff)
	}
	b.IPC = math.Nextafter(a.IPC, 2) // one ulp
	if ok, diff := sameResult(a, b); ok || diff == "" {
		t.Fatal("results one ulp apart compared equal")
	}
}

func TestDigestsAreOrderIndependentAndPerBenchmark(t *testing.T) {
	rs := []keyedResult{
		{"gzip/1", prisim.Result{Benchmark: "gzip", IPC: 1}},
		{"mcf/1", prisim.Result{Benchmark: "mcf", IPC: 0.5}},
		{"gzip/2", prisim.Result{Benchmark: "gzip", IPC: 2}},
	}
	rev := []keyedResult{rs[2], rs[1], rs[0]}
	a, b := digests(rs), digests(rev)
	if len(a) != 2 || len(diffDigests(a, b)) != 0 {
		t.Fatalf("digests depend on order: %v vs %v", a, b)
	}
	if combinedDigest(a) != combinedDigest(b) {
		t.Fatal("combined digest depends on order")
	}
	changed := append([]keyedResult(nil), rs...)
	changed[1].Result.Cycles++
	if d := diffDigests(a, digests(changed)); len(d) != 1 || d[0] != "mcf" {
		t.Fatalf("diffDigests = %v, want [mcf]", d)
	}
	if d := diffDigests(a, digests(rs[:2])); len(d) != 1 || d[0] != "gzip" {
		t.Fatalf("dropping a gzip point: diffDigests = %v, want [gzip]", d)
	}
	if d := diffDigests(digests(rs[1:2]), a); len(d) != 1 || d[0] != "gzip" {
		t.Fatalf("a benchmark present on one side only: diffDigests = %v", d)
	}
}

func TestCheckBudget(t *testing.T) {
	o := prisim.Options{Benchmark: "gzip", Width: 8, Run: 1000}
	for committed, ok := range map[uint64]bool{999: false, 1000: true, 1007: true, 1008: false} {
		err := checkBudget(o, prisim.Result{Committed: committed})
		if (err == nil) != ok {
			t.Errorf("committed %d: err %v, want ok=%t", committed, err, ok)
		}
	}
}

func TestCheckOutcomeComparesWarmAndProgramResults(t *testing.T) {
	src := genProgram(5, 0)
	want, err := functionalOutput(src)
	if err != nil {
		t.Fatal(err)
	}
	orig := original{Result: prisim.Result{Benchmark: "program", IPC: 1.5}, Output: want}
	origs := []original{orig}
	outcome := func(kind string, res prisim.Result, out []byte) jobOutcome {
		return jobOutcome{
			Plan:   plannedJob{Kind: kind, Req: prisimclient.JobRequest{Kind: prisimclient.KindProgram, Source: []byte(src)}},
			Job:    &prisimclient.Job{State: prisimclient.StateDone},
			Result: &prisimclient.JobResult{Result: &res, Output: out},
		}
	}
	check := func(o jobOutcome) error { return checkOutcome(o, origs, map[string][]byte{}) }

	if err := check(outcome("warm", orig.Result, want)); err != nil {
		t.Errorf("matching warm job: %v", err)
	}
	drift := orig.Result
	drift.IPC = math.Nextafter(drift.IPC, 0)
	if check(outcome("warm", drift, want)) == nil {
		t.Error("warm job one ulp off its original passed")
	}
	if err := check(outcome("program", orig.Result, want)); err != nil {
		t.Errorf("program printing the functional output: %v", err)
	}
	bad := []byte(strings.ToLower(string(want)))
	if check(outcome("program", orig.Result, bad)) == nil {
		t.Error("program printing other output than the functional run passed")
	}
	if check(outcome("reformat", orig.Result, bad)) == nil {
		t.Error("reformatted program printing other output than its original passed")
	}
	failed := outcome("warm", orig.Result, want)
	failed.Job.State = prisimclient.StateFailed
	if check(failed) == nil {
		t.Error("failed job passed")
	}
}
