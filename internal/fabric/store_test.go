package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
	if len(mats) != 1 || mats[0].ID != "mx-1" {
		t.Errorf("matrices after reopen = %+v, want one mx-1", mats)
	}
}

// legacyLog is a store log written before matrices stopped recording their
// completion: a finished two-point matrix, its results, its "matrix_done"
// marker, and a second matrix that never started.
const legacyLog = `{"type":"matrix","matrix":{"id":"mx-e64adc4ee26aaae3","spec":{"benchmarks":["gzip"],"policies":["base","er"],"widths":[4],"phys_regs":[0],"fast_forward":300,"run":1500},"created":"2023-11-14T22:13:20Z"}}
{"type":"result","entry":{"key":"c00db0d01190f14a1fb3ca489d42a71439504cfb8c5dfe4e5ed55c4d7e042b2a","kernel":"v0.4.0-dev","computed_by":"w1","created":"2023-11-14T22:13:20Z","request":{"kind":"simulate","benchmark":"gzip","width":4,"policy":"base","fast_forward":300,"run":1500,"cache_key":"c00db0d01190f14a1fb3ca489d42a71439504cfb8c5dfe4e5ed55c4d7e042b2a"},"result":{"Benchmark":"gzip","Machine":"","IntPRs":0,"FPPRs":0,"IPC":1.5,"Cycles":0,"Committed":1500,"IntOccupancy":0,"FPOccupancy":0,"AllocToWrite":0,"WriteToRead":0,"ReadToRelease":0,"InlineFraction":0,"MispredictRate":0,"BranchResolved":0,"DL1MissRate":0,"L2MissRate":0,"Replays":0,"InlinedResults":0,"WAWSuppressed":0,"DeferredFrees":0,"EarlyFrees":0}}}
{"type":"result","entry":{"key":"5cf0a1a9641bd7a9bd42f322eaaa6af0c94b7f65678f66fba1cc0534f581fd21","kernel":"v0.4.0-dev","computed_by":"w1","created":"2023-11-14T22:13:20Z","request":{"kind":"simulate","benchmark":"gzip","width":4,"policy":"er","fast_forward":300,"run":1500,"cache_key":"5cf0a1a9641bd7a9bd42f322eaaa6af0c94b7f65678f66fba1cc0534f581fd21"},"result":{"Benchmark":"gzip","Machine":"","IntPRs":0,"FPPRs":0,"IPC":1.5,"Cycles":0,"Committed":1500,"IntOccupancy":0,"FPOccupancy":0,"AllocToWrite":0,"WriteToRead":0,"ReadToRelease":0,"InlineFraction":0,"MispredictRate":0,"BranchResolved":0,"DL1MissRate":0,"L2MissRate":0,"Replays":0,"InlinedResults":0,"WAWSuppressed":0,"DeferredFrees":0,"EarlyFrees":0}}}
{"type":"matrix_done","matrix_id":"mx-e64adc4ee26aaae3"}
{"type":"matrix","matrix":{"id":"mx-8ada069b5a806898","spec":{"benchmarks":["mcf"],"policies":["base"],"widths":[4],"phys_regs":[0],"fast_forward":300,"run":1500},"created":"2023-11-14T22:13:20Z"}}
`

// TestStoreReplaysLegacyMatrixDone opens a log holding "matrix_done" lines:
// every result and matrix replays, nothing is truncated, and a coordinator
// completes the finished matrix from its stored results alone while the
// unstarted one stays open.
func TestStoreReplaysLegacyMatrixDone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	if err := os.WriteFile(path, []byte(legacyLog), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(legacyLog)) {
		t.Fatalf("log changed on open: %v, %v", fi, err)
	}
	if s.Len() != 2 {
		t.Errorf("replayed %d results, want 2", s.Len())
	}
	mats := s.Matrices()
	if len(mats) != 2 || mats[0].ID != "mx-e64adc4ee26aaae3" || mats[1].ID != "mx-8ada069b5a806898" {
		t.Fatalf("replayed matrices = %+v", mats)
	}

	c, err := New(Config{Store: s, Engine: prisim.NewEngine(), KernelVersion: "v0.4.0-dev"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done, err := c.MatrixStatus(mats[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != prisimclient.StateDone || done.StoreHits != 2 || done.Executed != 0 {
		t.Errorf("finished matrix after replay: %+v, want done from 2 store hits", done)
	}
	open, err := c.MatrixStatus(mats[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	if open.State != prisimclient.StateRunning || open.Done != 0 {
		t.Errorf("unstarted matrix after replay: %+v, want running with 0 done", open)
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

// TestMatrixIDPinned fixes the exact bytes of one matrix identity, and of
// its explicit-default spelling: durable matrix records are looked up by it.
func TestMatrixIDPinned(t *testing.T) {
	m := prisimclient.Matrix{
		Benchmarks: []string{"gzip", "mcf"}, Policies: []string{"base", "er"},
		Widths: []int{4, 8}, PhysRegs: []int{0, 48}, FastForward: 2000, Run: 8000,
	}
	if got, want := MatrixID("v0.4.0-dev", m), "mx-ba6ad7a3b63be86d"; got != want {
		t.Errorf("MatrixID = %s, want %s", got, want)
	}
	d := prisimclient.Matrix{Benchmarks: []string{"gzip"}, Policies: []string{"base", "er"}}
	if got, want := MatrixID("v0.4.0-dev", d), "mx-be2df55d346b22fb"; got != want {
		t.Errorf("MatrixID(defaulted) = %s, want %s", got, want)
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

// TestAssembleTablesShapePinned fixes the rendered tables of a spec that
// names points twice (Widths [4, 4, 8]) across two phys-regs blocks, with a
// result per point derived from its request, so a change to how tables
// walk the points cannot move a row, column or title.
func TestAssembleTablesShapePinned(t *testing.T) {
	m := prisimclient.Matrix{
		Benchmarks: []string{"gzip", "mcf", "vpr"}, Policies: []string{"base", "er", "pri-rc-ckpt"},
		Widths: []int{4, 4, 8}, PhysRegs: []int{0, 48}, FastForward: 300, Run: 1500,
	}
	results := map[string]prisim.Result{}
	for i, req := range Expand("v0.4.0-dev", m) {
		results[req.CacheKey] = prisim.Result{
			IPC:          float64(req.Width) + float64(req.PhysRegs)/100 + float64(len(req.Benchmark)+len(req.Policy))/7,
			AllocToWrite: float64(i % 9), WriteToRead: float64(len(req.Policy)), ReadToRelease: 0.25,
		}
	}
	tables, err := AssembleTables("v0.4.0-dev", m, func(key string) (prisim.Result, bool) {
		r, ok := results[key]
		return r, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
	}
	if len(tables) != 12 {
		t.Errorf("rendered %d tables, want 2 metrics x 3 widths x 2 phys-regs = 12", len(tables))
	}
	sum := sha256.Sum256([]byte(sb.String()))
	if got, want := hex.EncodeToString(sum[:]), "d83bc260fb9c322194eda2af216df39f1d85f5e824c5ce4ebb8d219d70328515"; got != want {
		t.Errorf("tables sha256 = %s, want %s\n%s", got, want, sb.String())
	}
	if _, err := AssembleTables("v0.4.0-dev", m, func(string) (prisim.Result, bool) { return prisim.Result{}, false }); err == nil ||
		!strings.Contains(err.Error(), "missing result for point gzip/base width=4 prs=0") {
		t.Errorf("missing result error = %v", err)
	}
}
