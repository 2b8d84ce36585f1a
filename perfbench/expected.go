package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
)

// expected.json records, per workload, the simulated outputs every run must
// reproduce exactly: the combined digest of the workload's point results
// (sweep and sampled: every point; service: the warm-up's fixed PRI matrix)
// and the measured PRI-rc-ckpt gain behind pri_gain_gap_pp. Neither depends
// on the seed or the host. A change that only speeds prisim up leaves them
// as they are; a change to the simulated model updates this file with the
// values the run prints, and says why.
//
//go:embed expected.json
var expectedJSON []byte

// expectation is one workload's recorded simulated outputs.
type expectation struct {
	Digest     string  `json:"digest"`
	PRIGainPct float64 `json:"pri_gain_pct"`
}

func loadExpected() (map[string]expectation, error) {
	var m map[string]expectation
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %v", err)
	}
	return m, nil
}

// mismatches compares a run's combined digest and PRI gain with the
// recorded ones, bit for bit. It returns one message per difference.
func mismatches(want expectation, ok bool, digest string, gainPct float64) []string {
	if !ok {
		return []string{fmt.Sprintf("no recorded expectation (digest %s, PRI gain %v%%)", digest, gainPct)}
	}
	var out []string
	if digest != want.Digest {
		out = append(out, fmt.Sprintf("result digest %s, recorded %s", digest, want.Digest))
	}
	if gainPct != want.PRIGainPct {
		out = append(out, fmt.Sprintf("PRI gain %v%%, recorded %v%%", gainPct, want.PRIGainPct))
	}
	return out
}

// checkExpected is one op of the run, failed unless its simulated outputs
// are the recorded ones.
func checkExpected(rep *report, workload, digest string, gainPct float64) {
	rep.ops++
	all, err := loadExpected()
	if err != nil {
		rep.fail("%v", err)
		return
	}
	want, ok := all[workload]
	if ms := mismatches(want, ok, digest, gainPct); len(ms) > 0 {
		rep.fail("%s: %s", workload, strings.Join(ms, "; "))
	}
}
