// Integration tests for the experiment fabric: coordinator + worker
// daemons wired over real HTTP (httptest), a durable store on disk, and
// the byte-identity contract against direct Engine runs. The package is
// external (fabric_test) because the worker side is internal/service,
// which itself imports fabric.
package fabric_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"prisim"
	"prisim/internal/fabric"
	"prisim/internal/service"
	"prisim/prisimclient"
)

var bg = context.Background()

// tiny keeps test simulations fast; shape is asserted, not paper numbers.
const (
	tinyFF  = 300
	tinyRun = 1500
)

// tinyMatrix is the canonical 2x2 test spec (4 points).
func tinyMatrix() prisimclient.Matrix {
	return prisimclient.Matrix{
		Benchmarks:  []string{"gzip", "mcf"},
		Policies:    []string{"base", "er"},
		FastForward: tinyFF,
		Run:         tinyRun,
	}
}

// bootWorker starts a real worker daemon (service.Server over httptest)
// named node and returns its URL.
func bootWorker(t *testing.T, node string) string {
	t.Helper()
	srv := service.New(service.Config{Workers: 2, NodeID: node})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return ts.URL
}

// optionsFor mirrors the worker-side request mapping for direct Engine
// reference runs.
func optionsFor(req prisimclient.JobRequest) prisim.Options {
	return prisim.Options{
		Benchmark:         req.Benchmark,
		Width:             req.Width,
		Policy:            prisim.Policy(req.Policy),
		PhysRegs:          req.PhysRegs,
		RenameInline:      req.RenameInline,
		DelayedAllocation: req.DelayedAllocation,
		FastForward:       req.FastForward,
		Run:               req.Run,
	}
}

// tablesText renders tables the way clients consume them.
func tablesText(tables []prisim.Table) string {
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestFabricByteIdenticalAndWarmRestart is the flagship acceptance test:
// a matrix sharded across two worker daemons must render byte-identically
// to direct single-node Engine runs; and after a coordinator restart over
// the same store, resubmitting the matrix must serve entirely from the
// durable store with zero worker dispatches.
func TestFabricByteIdenticalAndWarmRestart(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "results.log")
	st, err := fabric.OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fabric.New(fabric.Config{Store: st, Engine: prisim.NewEngine(), WorkerSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{bootWorker(t, "node-a"), bootWorker(t, "node-b")} {
		if _, err := coord.RegisterWorker(bg, url); err != nil {
			t.Fatal(err)
		}
	}

	spec := tinyMatrix()
	status, created, err := coord.SubmitMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first submission must create the matrix")
	}
	ctx, cancel := context.WithTimeout(bg, 60*time.Second)
	defer cancel()
	final, err := coord.WaitMatrix(ctx, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Fatalf("matrix state = %s (%s)", final.State, final.Error)
	}
	if final.Executed != final.Points || final.StoreHits != 0 {
		t.Errorf("cold run: executed=%d hits=%d, want executed=%d hits=0", final.Executed, final.StoreHits, final.Points)
	}

	res, err := coord.MatrixResult(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if !strings.HasPrefix(p.ComputedBy, "node-") {
			t.Errorf("point %s/%s computed by %q, want a worker node", p.Request.Benchmark, p.Request.Policy, p.ComputedBy)
		}
	}

	// Byte-identity: assemble the same tables from direct Engine runs.
	eng := prisim.NewEngine()
	direct := make(map[string]prisim.Result)
	for _, req := range fabric.Expand(prisim.Version, spec) {
		r, err := eng.Simulate(bg, optionsFor(req))
		if err != nil {
			t.Fatal(err)
		}
		direct[req.CacheKey] = r
	}
	want, err := fabric.AssembleTables(prisim.Version, spec, func(key string) (prisim.Result, bool) {
		r, ok := direct[key]
		return r, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, wantTxt := tablesText(res.Tables), tablesText(want); got != wantTxt {
		t.Errorf("fabric tables differ from single-node Engine tables:\n--- fabric ---\n%s--- direct ---\n%s", got, wantTxt)
	}

	// Duplicate submission coalesces onto the existing matrix.
	dup, created, err := coord.SubmitMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	if created || dup.ID != status.ID {
		t.Errorf("duplicate submission: created=%t id=%s, want coalesced onto %s", created, dup.ID, status.ID)
	}

	// Restart: a fresh coordinator over the same store, with NO workers and
	// no local slots, must complete the replayed matrix and serve a
	// resubmission entirely from the store.
	coord.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := fabric.OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	coord2, err := fabric.New(fabric.Config{Store: st2, Engine: prisim.NewEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()

	warm, created, err := coord2.SubmitMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Error("resubmission after restart must coalesce onto the replayed matrix")
	}
	if warm.State != prisimclient.StateDone {
		t.Fatalf("replayed matrix state = %s (%s), want done with no workers attached", warm.State, warm.Error)
	}
	if warm.StoreHits != warm.Points || warm.Executed != 0 {
		t.Errorf("warm run: hits=%d executed=%d, want hits=%d executed=0", warm.StoreHits, warm.Executed, warm.Points)
	}
	if n := coord2.Dispatched(); n != 0 {
		t.Errorf("warm coordinator dispatched %d points to workers, want 0", n)
	}
	res2, err := coord2.MatrixResult(warm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := tablesText(res2.Tables); got != tablesText(want) {
		t.Error("store-served tables differ from the original run")
	}
}

// TestWorkerCrashRedispatch kills a worker mid-point (a fake daemon whose
// job API errors) and asserts the coordinator re-dispatches the point to a
// healthy worker and still completes the matrix.
func TestWorkerCrashRedispatch(t *testing.T) {
	st, err := fabric.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fabric.New(fabric.Config{
		Store:        st,
		Engine:       prisim.NewEngine(),
		RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// The crashing worker: version and submit behave, everything after dies.
	var jobN int
	crashy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/version"):
			json.NewEncoder(w).Encode(map[string]string{"version": prisim.Version})
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/jobs"):
			jobN++
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(prisimclient.Job{ID: fmt.Sprintf("job-%d", jobN), State: prisimclient.StateQueued})
		default:
			http.Error(w, "worker crashed", http.StatusInternalServerError)
		}
	}))
	defer crashy.Close()
	if _, err := coord.RegisterWorker(bg, crashy.URL); err != nil {
		t.Fatal(err)
	}

	spec := prisimclient.Matrix{
		Benchmarks: []string{"gzip"}, Policies: []string{"base"},
		FastForward: tinyFF, Run: tinyRun,
	}
	status, _, err := coord.SubmitMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the crashy worker has demonstrably failed the point, then
	// bring up a real worker for the re-dispatch.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ws := coord.Workers()
		if len(ws) == 1 && ws[0].Failures > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("crashy worker never recorded a failure")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := coord.RegisterWorker(bg, bootWorker(t, "node-healthy")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(bg, 60*time.Second)
	defer cancel()
	final, err := coord.WaitMatrix(ctx, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Fatalf("matrix state = %s (%s), want done after re-dispatch", final.State, final.Error)
	}
	if final.Executed != 1 {
		t.Errorf("executed = %d, want 1", final.Executed)
	}
	res, err := coord.MatrixResult(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if by := res.Points[0].ComputedBy; by != "node-healthy" {
		t.Errorf("point computed by %q, want the healthy worker node-healthy", by)
	}
}

// TestCoordinatorRestartResumesInFlightMatrix stops the coordinator after
// some (but not all) points landed in the store and asserts a fresh
// coordinator over the same store finishes the matrix, executing only the
// missing points.
func TestCoordinatorRestartResumesInFlightMatrix(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "results.log")
	st, err := fabric.OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	workerURL := bootWorker(t, "node-a")
	coord, err := fabric.New(fabric.Config{Store: st, Engine: prisim.NewEngine(), WorkerSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.RegisterWorker(bg, workerURL); err != nil {
		t.Fatal(err)
	}
	spec := tinyMatrix()
	status, _, err := coord.SubmitMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Let at least one point land durably, then kill the coordinator.
	deadline := time.Now().Add(30 * time.Second)
	for st.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no point ever landed in the store")
		}
		time.Sleep(5 * time.Millisecond)
	}
	coord.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := fabric.OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	preDone := st2.Len()
	if preDone == 0 {
		t.Fatal("durable store lost the completed points")
	}
	coord2, err := fabric.New(fabric.Config{Store: st2, Engine: prisim.NewEngine(), WorkerSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if _, err := coord2.RegisterWorker(bg, workerURL); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 60*time.Second)
	defer cancel()
	final, err := coord2.WaitMatrix(ctx, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Fatalf("resumed matrix state = %s (%s)", final.State, final.Error)
	}
	if final.StoreHits < preDone {
		t.Errorf("resumed matrix hits = %d, want >= %d pre-crash points served warm", final.StoreHits, preDone)
	}
	if final.StoreHits+final.Executed != final.Points {
		t.Errorf("hits(%d) + executed(%d) != points(%d)", final.StoreHits, final.Executed, final.Points)
	}
}

// TestOverlappingMatricesCoalescePoints submits two matrices sharing a
// point while the coordinator has no capacity, and asserts the shared
// point runs once: the second matrix joins the first's in-flight point
// instead of spawning its own.
func TestOverlappingMatricesCoalescePoints(t *testing.T) {
	st, err := fabric.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	// No workers, no local slots: nothing can execute until we add capacity,
	// so both submissions observe the shared point as in-flight.
	coord, err := fabric.New(fabric.Config{Store: st, Engine: prisim.NewEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	a := prisimclient.Matrix{
		Benchmarks: []string{"gzip"}, Policies: []string{"base", "er"},
		FastForward: tinyFF, Run: tinyRun,
	}
	b := prisimclient.Matrix{
		Benchmarks: []string{"gzip"}, Policies: []string{"er", "infpr"},
		FastForward: tinyFF, Run: tinyRun,
	}
	stA, _, err := coord.SubmitMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	stB, _, err := coord.SubmitMatrix(b)
	if err != nil {
		t.Fatal(err)
	}
	if stB.Coalesced != 1 {
		t.Fatalf("matrix B coalesced = %d, want 1 (the shared gzip/er point)", stB.Coalesced)
	}

	if _, err := coord.RegisterWorker(bg, bootWorker(t, "node-a")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 60*time.Second)
	defer cancel()
	for _, id := range []string{stA.ID, stB.ID} {
		final, err := coord.WaitMatrix(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != prisimclient.StateDone {
			t.Fatalf("matrix %s state = %s (%s)", id, final.State, final.Error)
		}
	}
	finalA, _ := coord.MatrixStatus(stA.ID)
	finalB, _ := coord.MatrixStatus(stB.ID)
	if finalA.Executed != 2 {
		t.Errorf("matrix A executed = %d, want 2", finalA.Executed)
	}
	if finalB.Executed != 1 || finalB.Coalesced != 1 || finalB.StoreHits != 0 {
		t.Errorf("matrix B executed=%d coalesced=%d hits=%d, want 1/1/0", finalB.Executed, finalB.Coalesced, finalB.StoreHits)
	}
	// Three unique points total across both matrices.
	if n := st.Len(); n != 3 {
		t.Errorf("store holds %d entries, want 3 unique points", n)
	}
}

// TestRegisterWorkerRefusesVersionSkew pins the coordinator's kernel
// guard: a worker running a different build must be refused, because its
// results would hash under different content keys.
func TestRegisterWorkerRefusesVersionSkew(t *testing.T) {
	st, err := fabric.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fabric.New(fabric.Config{Store: st, Engine: prisim.NewEngine()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	stale := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"version": "v0.0.0-stale"})
	}))
	defer stale.Close()
	if _, err := coord.RegisterWorker(bg, stale.URL); err == nil {
		t.Fatal("registering a version-skewed worker must fail")
	}
}
