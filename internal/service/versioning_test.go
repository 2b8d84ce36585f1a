package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prisim"
	"prisim/internal/fabric"
	"prisim/prisimclient"
)

// TestAPIv1AndLegacyAliases round-trips every job-API endpoint through the
// client against /api/v1, and checks that the unversioned legacy aliases,
// removed after their one-release deprecation window, are gone.
func TestAPIv1AndLegacyAliases(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})

	t.Run("v1", func(t *testing.T) {
		c := prisimclient.NewClient(ts.URL)
		benches, err := c.Benchmarks(bg)
		if err != nil || len(benches) == 0 {
			t.Fatalf("Benchmarks = %v, %v", benches, err)
		}
		exps, err := c.Experiments(bg)
		if err != nil || len(exps) == 0 {
			t.Fatalf("Experiments = %v, %v", exps, err)
		}
		ver, err := c.Version(bg)
		if err != nil || ver != prisim.Version {
			t.Fatalf("Version = %q, %v; want %q", ver, err, prisim.Version)
		}

		j, err := c.Submit(bg, prisimclient.JobRequest{
			Kind: prisimclient.KindSimulate, Benchmark: "gzip",
			FastForward: tinyFF, Run: tinyRun,
		})
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.Wait(bg, j.ID, 0) // exercises the SSE events route
		if err != nil {
			t.Fatal(err)
		}
		if final.State != prisimclient.StateDone {
			t.Fatalf("job state = %s (%s)", final.State, final.Error)
		}
		res, err := c.Result(bg, j.ID)
		if err != nil || res.Result == nil {
			t.Fatalf("Result = %+v, %v", res, err)
		}
		if res.KernelVersion != prisim.Version || res.CacheKey == "" {
			t.Errorf("result metadata = (%q, %q), want kernel version and a cache key", res.KernelVersion, res.CacheKey)
		}
		jobs, err := c.Jobs(bg)
		if err != nil || len(jobs) == 0 {
			t.Fatalf("Jobs = %v, %v", jobs, err)
		}

		j2, err := c.Submit(bg, prisimclient.JobRequest{
			Kind: prisimclient.KindSimulate, Benchmark: "mcf",
			FastForward: tinyFF, Run: tinyRun,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Cancel(bg, j2.ID); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("legacy", func(t *testing.T) {
		for _, path := range []string{"/jobs", "/version", "/benchmarks"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET %s = %d, want 404 (legacy aliases are removed)", path, resp.StatusCode)
			}
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"kind":"simulate","benchmark":"gzip"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST /jobs = %d, want 404", resp.StatusCode)
		}
	})
}

// TestSubmitVerifiesClientCacheKey pins the cache-key handshake: a correct
// client-computed key is accepted and echoed; a wrong one (kernel-version
// skew) is refused with 409 and the ErrCacheKeyMismatch sentinel.
func TestSubmitVerifiesClientCacheKey(t *testing.T) {
	_, c := boot(t, Config{Workers: 1})

	req := prisimclient.JobRequest{
		Kind: prisimclient.KindSimulate, Benchmark: "gzip",
		FastForward: tinyFF, Run: tinyRun,
	}
	req.CacheKey = prisimclient.CacheKeyFor(prisim.Version, req)
	j, err := c.Submit(bg, req)
	if err != nil {
		t.Fatalf("correct cache key refused: %v", err)
	}
	if j.CacheKey != req.CacheKey {
		t.Errorf("job echoes cache key %q, want %q", j.CacheKey, req.CacheKey)
	}

	req.CacheKey = prisimclient.CacheKeyFor("v0.0.0-skewed", req)
	if _, err := c.Submit(bg, req); !errors.Is(err, prisimclient.ErrCacheKeyMismatch) {
		t.Fatalf("skewed cache key: err = %v, want ErrCacheKeyMismatch", err)
	}
}

// TestStoreBackedSimulateSkipsEngine pins the durable-store fast path: the
// second submission of a point resolves from the store (counted in
// prisimd_jobs_store_served_total) and preserves the original producer's
// ComputedBy stamp.
func TestStoreBackedSimulateSkipsEngine(t *testing.T) {
	st, err := fabric.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	_, c := boot(t, Config{Workers: 1, Coordinator: coordinator(t, fabric.Config{Store: st, NodeID: "node-under-test"})})

	req := prisimclient.JobRequest{
		Kind: prisimclient.KindSimulate, Benchmark: "gzip",
		FastForward: tinyFF, Run: tinyRun,
	}
	run := func() *prisimclient.JobResult {
		t.Helper()
		j, err := c.Submit(bg, req)
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
		return res
	}
	first := run()
	second := run()
	if first.ComputedBy != "node-under-test" || second.ComputedBy != "node-under-test" {
		t.Errorf("ComputedBy = (%q, %q), want the executing node on both", first.ComputedBy, second.ComputedBy)
	}
	if *first.Result != *second.Result {
		t.Error("store-served result differs from the computed one")
	}
	if st.Len() != 1 {
		t.Errorf("store holds %d entries, want 1", st.Len())
	}
	page, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, page, "prisimd_jobs_store_served_total"); got != 1 {
		t.Errorf("prisimd_jobs_store_served_total = %g, want 1 (second job served from the store)", got)
	}
}

// TestWaitFailsFastOnUnknownJob pins the Wait fix: an unknown job ID must
// surface ErrJobNotFound promptly instead of polling forever.
func TestWaitFailsFastOnUnknownJob(t *testing.T) {
	_, c := boot(t, Config{Workers: 1})
	start := time.Now()
	_, err := c.Wait(bg, "job-999", 10*time.Millisecond)
	if !errors.Is(err, prisimclient.ErrJobNotFound) {
		t.Fatalf("err = %v, want ErrJobNotFound", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Wait took %s to fail on an unknown job", elapsed)
	}
}
