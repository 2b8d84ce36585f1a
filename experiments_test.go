package prisim

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"prisim/internal/core"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

var bg = context.Background()

// mustRun simulates one point on e, failing the test on error.
func mustRun(t testing.TB, e *Engine, w workloads.Workload, cfg ooo.Config) *Result {
	t.Helper()
	res, err := e.run(bg, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunnerCaching(t *testing.T) {
	r := fastEngine()
	w, _ := workloads.ByName("gzip")
	a := mustRun(t, r, w, ooo.Width4())
	b := mustRun(t, r, w, ooo.Width4())
	if a != b {
		t.Error("identical runs not cached")
	}
	if got := r.RunsExecuted(); got != 1 {
		t.Errorf("RunsExecuted = %d after one unique point, want 1", got)
	}
	c := mustRun(t, r, w, ooo.Width4().WithPolicy(core.PolicyPRIRcCkpt))
	if c == a {
		t.Error("different policies shared a cache entry")
	}
	cons := ooo.Width4()
	cons.ConservativeDisambiguation = true
	if mustRun(t, r, w, cons) == a {
		t.Error("disambiguation modes shared a cache entry")
	}
}

func TestBudgetViewsShareCache(t *testing.T) {
	r := fastEngine()
	w, _ := workloads.ByName("gzip")
	a := mustRun(t, r, w, ooo.Width4())
	// Same budget through a view: must hit the same entry.
	if mustRun(t, r.at(budget{500, 4000}), w, ooo.Width4()) != a {
		t.Error("same-budget view missed the shared cache")
	}
	// A different budget is a different point.
	b := mustRun(t, r.at(budget{500, 2000}), w, ooo.Width4())
	if b == a {
		t.Error("different budgets shared a cache entry")
	}
	if got := r.RunsExecuted(); got != 2 {
		t.Errorf("RunsExecuted = %d, want 2", got)
	}
}

// TestSingleflightDeduplication hammers one Engine with 16 goroutines all
// requesting the same small set of points and asserts each point simulated
// exactly once. Run under -race this also exercises the cache's locking.
func TestSingleflightDeduplication(t *testing.T) {
	r := NewEngine(WithBudget(200, 1000), WithParallelism(4))
	w1, _ := workloads.ByName("gzip")
	w2, _ := workloads.ByName("mcf")
	cfgs := []ooo.Config{
		ooo.Width4(),
		ooo.Width4().WithPolicy(core.PolicyPRIRcCkpt),
		ooo.Width8(),
	}
	const goroutines = 16
	results := make([][]*Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, w := range []workloads.Workload{w1, w2} {
				for _, cfg := range cfgs {
					res, err := r.run(bg, w, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					results[g] = append(results[g], res)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.RunsExecuted(); got != 6 {
		t.Errorf("RunsExecuted = %d for 6 unique points hammered by %d goroutines, want 6", got, goroutines)
	}
	// Every goroutine must have observed the identical shared results.
	for g := 1; g < goroutines; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d result %d not shared", g, i)
			}
		}
	}
}

func TestRunCtxCancellation(t *testing.T) {
	// Already-cancelled context: no simulation happens.
	r := fastEngine()
	w, _ := workloads.ByName("gzip")
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := r.run(ctx, w, ooo.Width4()); err != context.Canceled {
		t.Errorf("cancelled run error = %v", err)
	}
	if r.RunsExecuted() != 0 {
		t.Error("cancelled context still simulated")
	}

	// Mid-run cancellation: a budget far beyond the context deadline must
	// abort between chunks, and the point must remain retryable.
	big := NewEngine(WithBudget(100, 50_000_000))
	ctx2, cancel2 := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel2()
	if _, err := big.run(ctx2, w, ooo.Width4()); err == nil {
		t.Fatal("mid-run cancellation did not surface")
	}
	// The cancelled flight was evicted; a fresh context retries cleanly.
	small := big.at(budget{100, 1000})
	if _, err := small.run(bg, w, ooo.Width4()); err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
}

// TestCancelledFlightEvictionWakesWaiter is the direct test of the
// singleflight eviction path: a waiter coalesced onto another caller's
// flight must, when that flight's owner is cancelled, observe the eviction,
// retry as the new owner under its own live context, and succeed — and the
// cancelled attempt must not be counted as executed.
func TestCancelledFlightEvictionWakesWaiter(t *testing.T) {
	r := NewEngine(WithBudget(100, 3_000_000), WithParallelism(4))
	w, _ := workloads.ByName("gzip")
	cfg := ooo.Width4()

	ownerCtx, cancelOwner := context.WithCancel(bg)
	ownerErr := make(chan error, 1)
	go func() {
		_, err := r.run(ownerCtx, w, cfg)
		ownerErr <- err
	}()

	// Wait until the owner has installed its in-flight entry, then attach
	// a waiter with a context that stays live.
	key := runKey{w.Name, cfg, r.budget}
	for {
		r.s.runs.mu.Lock()
		_, inFlight := r.s.runs.slots[key]
		r.s.runs.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	waiterRes := make(chan *Result, 1)
	waiterErr := make(chan error, 1)
	go func() {
		res, err := r.run(bg, w, cfg)
		waiterRes <- res
		waiterErr <- err
	}()
	// Give the waiter a moment to coalesce onto the flight, then kill the
	// owner mid-run.
	time.Sleep(10 * time.Millisecond)
	cancelOwner()

	if err := <-ownerErr; err != context.Canceled {
		t.Fatalf("owner error = %v, want context.Canceled", err)
	}
	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("waiter failed after owner cancellation: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("waiter never woke after the owner's flight was evicted")
	}
	if res := <-waiterRes; res == nil || res.IPC <= 0 {
		t.Fatalf("waiter result = %+v", res)
	}
	// Only the waiter's retry executed; the cancelled flight was evicted
	// and must not be counted.
	if got := r.RunsExecuted(); got != 1 {
		t.Errorf("RunsExecuted = %d after cancel+retry, want 1", got)
	}
	// The cache now holds a completed entry: another request is a pure hit.
	if _, err := r.run(bg, w, cfg); err != nil {
		t.Fatal(err)
	}
	if cs := r.CacheStats(); cs.Hits < 1 || cs.Executed != 1 {
		t.Errorf("CacheStats = %+v, want >=1 hit and exactly 1 execution", cs)
	}
}

// TestProgressView asserts per-view progress accounting: the view counts
// every request it makes, instant cache hits included, and a second view is
// independent.
func TestProgressView(t *testing.T) {
	r := fastEngine()
	w4, w8 := ooo.Width4(), ooo.Width8()
	w, _ := workloads.ByName("gzip")

	var mu sync.Mutex
	var got [][2]int
	v := r.ProgressView(func(done, total int) {
		mu.Lock()
		got = append(got, [2]int{done, total})
		mu.Unlock()
	})
	mustRun(t, v, w, w4)
	mustRun(t, v, w, w8)
	mustRun(t, v, w, w4) // completed-entry hit: still a request of the view
	if want := [][2]int{{1, 1}, {2, 2}, {3, 3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("view progress events = %v, want %v", got, want)
	}
	// The budget view must keep reporting to the same hook.
	mustRun(t, v.at(budget{200, 900}), w, w4)
	if len(got) != 4 || got[3] != [2]int{4, 4} {
		t.Errorf("after budget view, events = %v", got)
	}
	// A fresh view starts from zero while sharing the cache: its pure hit
	// reports 1/1, so a warm experiment reads N/N.
	var other [][2]int
	v2 := r.ProgressView(func(done, total int) { other = append(other, [2]int{done, total}) })
	mustRun(t, v2, w, w4)
	if want := [][2]int{{1, 1}}; !reflect.DeepEqual(other, want) {
		t.Errorf("second view events = %v, want %v", other, want)
	}
	if cs := r.CacheStats(); cs.Executed != 3 {
		t.Errorf("Executed = %d, want 3 (gzip at w4, w8 and the second budget)", cs.Executed)
	}
}

// TestParallelMatchesSerial asserts the headline property: a figure
// regenerated on a multi-worker pool is byte-identical to the single-worker
// (serial order) run.
func TestParallelMatchesSerial(t *testing.T) {
	serial, err := NewEngine(WithBudget(300, 1500), WithParallelism(1)).fig8(bg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewEngine(WithBudget(300, 1500), WithParallelism(8)).fig8(bg)
	if err != nil {
		t.Fatal(err)
	}
	if serial[0].String() != parallel[0].String() {
		t.Errorf("parallel fig8 differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
			serial[0].String(), parallel[0].String())
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	r := fastEngine()
	w, _ := workloads.ByName("bzip2")
	res := mustRun(t, r, w, ooo.Width4())
	if res.IPC <= 0 || res.IPC > 4 {
		t.Errorf("IPC = %v", res.IPC)
	}
	if res.Committed == 0 || res.Cycles == 0 {
		t.Error("empty run")
	}
	if res.IntOccupancy < 32 || res.IntOccupancy > 64 {
		t.Errorf("occupancy = %v", res.IntOccupancy)
	}
	if res.AllocToWrite+res.WriteToRead+res.ReadToRelease <= 0 {
		t.Error("no lifetime data")
	}
}

func TestRunProgram(t *testing.T) {
	w, _ := workloads.ByName("gzip")
	res, _, err := runProgram(bg, ooo.Width4(), w.Build(0), false, budget{100, 2000}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Committed == 0 {
		t.Errorf("empty program run: %+v", res)
	}
}

func TestTable1Static(t *testing.T) {
	ts, err := fastEngine().table1(bg)
	if err != nil {
		t.Fatal(err)
	}
	out := ts[0].String()
	for _, want := range []string{"ROB", "512", "scheduler", "32"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig2Shapes(t *testing.T) {
	r := fastEngine()
	ts, err := r.fig2(bg)
	if err != nil {
		t.Fatal(err)
	}
	intT, fpT := ts[0], ts[1]
	if len(intT.Rows) != 13 || len(fpT.Rows) != 14 {
		t.Errorf("fig2 rows: %d int, %d fp", len(intT.Rows), len(fpT.Rows))
	}
	// The last integer column is <=64 bits: must be 100%.
	for _, row := range intT.Rows {
		if row[len(row)-1] != "100.0%" {
			t.Errorf("%s: <=64-bit fraction = %s", row[0], row[len(row)-1])
		}
	}
}

func TestSpeedupTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := NewEngine(WithBudget(500, 2500))
	// Restrict to a subset by running the full Fig10 at a tiny budget.
	tb, err := r.fig10(bg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 14 { // 13 benchmarks + average
		t.Fatalf("fig10 rows = %d", len(tb.Rows))
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "average" {
		t.Errorf("last row = %v", last[0])
	}
	if len(tb.Columns) != 8 {
		t.Errorf("fig10 columns = %d", len(tb.Columns))
	}
}

func TestFig9Normalization(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := NewEngine(WithBudget(200, 1500))
	tb, err := r.fig9(bg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 27 {
		t.Fatalf("fig9 rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[1] != "1.00" {
			t.Errorf("%s: PR=40 column = %s, want 1.00", row[0], row[1])
		}
	}
}

func TestExperimentCancellationMidSweep(t *testing.T) {
	// A sweep large enough that cancellation lands mid-flight.
	r := NewEngine(WithBudget(2000, 50_000))
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := r.fig8(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled Fig8 returned no error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled Fig8 did not return")
	}
}

func TestMeanHelper(t *testing.T) {
	if mean(nil) != 0 {
		t.Error("mean(nil)")
	}
	if mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
}

func TestShapeChecksMostlyPass(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := NewEngine(WithBudget(4000, 10000))
	checks, err := r.checkShapes(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 15 {
		t.Fatalf("only %d shape checks", len(checks))
	}
	pass := 0
	for _, c := range checks {
		if c.pass {
			pass++
		} else {
			t.Logf("shape check failed (may be budget noise): %s — %s", c.name, c.note)
		}
	}
	// At a reduced budget a couple of checks can be noisy, but the bulk
	// must hold or the model has regressed.
	if pass*4 < len(checks)*3 {
		t.Errorf("only %d/%d shape checks passed", pass, len(checks))
	}
}

func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	r := NewEngine(WithBudget(300, 1200))
	var sb strings.Builder
	if err := r.WriteReport(bg, &sb, Options{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Shape checklist", "checks passed"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Every registered experiment's tables are in the report (re-running
	// them here is served from the Engine's cache).
	for _, x := range experiments {
		tables, err := x.run(r, bg)
		if err != nil {
			t.Fatalf("%s: %v", x.name, err)
		}
		for _, tb := range tables {
			if !strings.Contains(out, tb.Title) {
				t.Errorf("report missing %s table %q", x.name, tb.Title)
			}
		}
	}
}
