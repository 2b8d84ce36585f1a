package fabric

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"prisim"
	"prisim/prisimclient"
)

func testEntry(key, by string) Entry {
	return Entry{
		Key:        key,
		Kernel:     prisim.Version,
		ComputedBy: by,
		Created:    time.Unix(1700000000, 0).UTC(),
		Request:    prisimclient.JobRequest{Kind: prisimclient.KindSimulate, Benchmark: "gzip", Policy: "er"},
		Result:     prisim.Result{Benchmark: "gzip", IPC: 1.25, Committed: 1500},
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntry("k1", "w1")
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMatrix("mx-1", prisimclient.Matrix{Benchmarks: []string{"gzip"}, Policies: []string{"er"}}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkMatrixDone("mx-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get("k1")
	if !ok {
		t.Fatal("entry k1 lost across reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("entry changed across reopen:\n got %+v\nwant %+v", got, want)
	}
	mats := s2.Matrices()
	if len(mats) != 1 || mats[0].ID != "mx-1" || !mats[0].Done {
		t.Errorf("matrices after reopen = %+v, want one done mx-1", mats)
	}
}

func TestStoreFirstWriteWins(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	first := testEntry("k", "w1")
	second := testEntry("k", "w2")
	if err := s.Put(first); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(second); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("k")
	if got.ComputedBy != "w1" {
		t.Errorf("ComputedBy = %q, want first writer w1", got.ComputedBy)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestStoreRepairsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testEntry("k1", "w1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testEntry("k2", "w1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, incomplete final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"result","entry":{"key":"k3","ker`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Errorf("Len after torn-tail repair = %d, want 2", s2.Len())
	}
	if _, ok := s2.Get("k3"); ok {
		t.Error("torn entry k3 should not have been replayed")
	}
	// The truncated log must accept clean appends and survive another cycle.
	if err := s2.Put(testEntry("k4", "w2")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 3 {
		t.Errorf("Len after repair+append+reopen = %d, want 3", s3.Len())
	}
}

// TestStoreReplaysOversizedRecord reopens a log holding one record far
// larger than a typical line (6 MiB of program output, over 8 MiB once
// base64-encoded): replay has no line-length cap, so the store opens and
// serves the record intact.
func TestStoreReplaysOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	big := testEntry("big", "w1")
	big.Output = make([]byte, 6<<20)
	for i := range big.Output {
		big.Output[i] = byte(i)
	}
	if err := s.Put(big); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testEntry("k2", "w1")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatalf("reopening a log with an oversized record: %v", err)
	}
	defer s2.Close()
	got, ok := s2.Get("big")
	if !ok || !reflect.DeepEqual(got.Output, big.Output) {
		t.Errorf("oversized record lost or changed across reopen (found %v, %d output bytes)", ok, len(got.Output))
	}
	if s2.Len() != 2 {
		t.Errorf("Len = %d, want 2", s2.Len())
	}
}

// TestStoreRepairsLostNewline covers a crash that drops only the final
// newline: the last record still decodes, but it is not a complete line,
// so replay discards and truncates it. Appends then start on a clean line
// and survive the next reopen.
func TestStoreRepairsLostNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k1", "k2"} {
		if err := s.Put(testEntry(k, "w1")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("k2"); ok {
		t.Error("record without its newline was replayed")
	}
	if err := s2.Put(testEntry("k3", "w2")); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	for _, k := range []string{"k1", "k3"} {
		if _, ok := s3.Get(k); !ok {
			t.Errorf("entry %s lost after repair+append+reopen", k)
		}
	}
	if s3.Len() != 2 {
		t.Errorf("Len after repair+append+reopen = %d, want 2", s3.Len())
	}
}

func TestStoreHitMissCounters(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	s.Get("absent")
	if err := s.Put(testEntry("k", "w1")); err != nil {
		t.Fatal(err)
	}
	s.Get("k")
	entries, hits, misses := s.Stats()
	if entries != 1 || hits != 1 || misses != 1 {
		t.Errorf("Stats = (%d, %d, %d), want (1, 1, 1)", entries, hits, misses)
	}
}

func TestMatrixIDIsContentDerived(t *testing.T) {
	a := prisimclient.Matrix{Benchmarks: []string{"gzip"}, Policies: []string{"base", "er"}}
	b := prisimclient.Matrix{Benchmarks: []string{"gzip"}, Policies: []string{"base", "er"}, Widths: []int{4}}
	if MatrixID("v1", a) != MatrixID("v1", b) {
		t.Error("explicit-default spelling must hash identically to the defaulted spec")
	}
	c := prisimclient.Matrix{Benchmarks: []string{"gzip"}, Policies: []string{"er", "base"}}
	if MatrixID("v1", a) == MatrixID("v1", c) {
		t.Error("different policy order is a different matrix (column order matters)")
	}
	if MatrixID("v1", a) == MatrixID("v2", a) {
		t.Error("kernel version must be folded into the matrix identity")
	}
}

func TestExpandKeysMatchClientHash(t *testing.T) {
	m := NormalizeMatrix(prisimclient.Matrix{
		Benchmarks: []string{"gzip", "mcf"}, Policies: []string{"base", "er"},
		FastForward: 300, Run: 1500,
	})
	reqs := Expand(prisim.Version, m)
	if len(reqs) != 4 {
		t.Fatalf("expanded %d points, want 4", len(reqs))
	}
	seen := map[string]bool{}
	for _, r := range reqs {
		if r.CacheKey != prisimclient.CacheKeyFor(prisim.Version, r) {
			t.Errorf("point %s/%s carries a key that does not match CacheKeyFor", r.Benchmark, r.Policy)
		}
		if seen[r.CacheKey] {
			t.Errorf("duplicate cache key for %s/%s", r.Benchmark, r.Policy)
		}
		seen[r.CacheKey] = true
	}
}
