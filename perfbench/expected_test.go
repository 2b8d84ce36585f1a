package main

import (
	"math"
	"regexp"
	"testing"
)

func TestMismatchesAreBitExact(t *testing.T) {
	want := expectation{Digest: "abc", PRIGainPct: 1.25}
	if m := mismatches(want, true, "abc", 1.25); len(m) != 0 {
		t.Errorf("identical outputs: %v", m)
	}
	if m := mismatches(want, true, "abc", math.Nextafter(1.25, 2)); len(m) != 1 {
		t.Errorf("gain one ulp off: %v, want one mismatch", m)
	}
	if m := mismatches(want, true, "abd", 1.25); len(m) != 1 {
		t.Errorf("other digest: %v, want one mismatch", m)
	}
	if m := mismatches(expectation{}, false, "abc", 1.25); len(m) != 1 {
		t.Errorf("nothing recorded: %v, want one mismatch", m)
	}
}

func TestCheckExpectedFailsOneOp(t *testing.T) {
	all, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	want := all["sweep"]
	rep := &report{}
	checkExpected(rep, "sweep", want.Digest, want.PRIGainPct)
	if rep.ops != 1 || rep.failed != 0 {
		t.Errorf("recorded outputs: ops %d failed %d, want 1 and 0", rep.ops, rep.failed)
	}
	checkExpected(rep, "sweep", "other", want.PRIGainPct+1)
	if rep.ops != 2 || rep.failed != 1 {
		t.Errorf("two differences: ops %d failed %d, want 2 and 1", rep.ops, rep.failed)
	}
}

func TestExpectedCoversEveryWorkload(t *testing.T) {
	all, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	hex := regexp.MustCompile(`^[0-9a-f]{64}$`)
	for _, w := range []string{"sweep", "sampled", "service"} {
		e, ok := all[w]
		if !ok || !hex.MatchString(e.Digest) || e.PRIGainPct == 0 {
			t.Errorf("%s: recorded %+v (present %v)", w, e, ok)
		}
	}
}
