package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"prisim"
)

// resultBytes is the canonical byte form of a simulation result: its JSON
// encoding, which covers every exported field with full float precision.
func resultBytes(r prisim.Result) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	return b
}

// sameResult reports whether two results are byte-for-byte identical,
// with a description of the first difference when they are not.
func sameResult(a, b prisim.Result) (bool, string) {
	ab, bb := resultBytes(a), resultBytes(b)
	if bytes.Equal(ab, bb) {
		return true, ""
	}
	return false, fmt.Sprintf("%s != %s", ab, bb)
}

// keyedResult is one point's result under a stable point key.
type keyedResult struct {
	Key    string
	Result prisim.Result
}

// digests returns, per benchmark, the SHA-256 of all of its results in key
// order, so the digest does not depend on the order points finished in.
func digests(rs []keyedResult) map[string]string {
	sorted := append([]keyedResult(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	hs := map[string]*bytes.Buffer{}
	for _, r := range sorted {
		b, ok := hs[r.Result.Benchmark]
		if !ok {
			b = &bytes.Buffer{}
			hs[r.Result.Benchmark] = b
		}
		b.WriteString(r.Key)
		b.WriteByte('\n')
		b.Write(resultBytes(r.Result))
		b.WriteByte('\n')
	}
	out := make(map[string]string, len(hs))
	for bench, b := range hs {
		sum := sha256.Sum256(b.Bytes())
		out[bench] = hex.EncodeToString(sum[:])
	}
	return out
}

// diffDigests lists the benchmarks whose digests differ between two runs
// (including benchmarks present in only one).
func diffDigests(a, b map[string]string) []string {
	var diff []string
	for k, v := range a {
		if b[k] != v {
			diff = append(diff, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	return diff
}

// combinedDigest folds per-benchmark digests into one, for a one-line
// summary that repeats across runs.
func combinedDigest(ds map[string]string) string {
	keys := make([]string, 0, len(ds))
	for k := range ds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, ds[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}
