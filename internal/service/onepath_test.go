package service

import (
	"context"
	"errors"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"prisim"
	"prisim/internal/fabric"
	"prisim/prisimclient"
)

// onePointMatrix is a one-point matrix whose run is long enough that a job
// for the same point is still running when the matrix arrives.
func onePointMatrix(run uint64) (prisimclient.Matrix, prisimclient.JobRequest) {
	spec := prisimclient.Matrix{
		Benchmarks: []string{"gzip"}, Policies: []string{"base"},
		FastForward: tinyFF, Run: run,
	}
	return spec, fabric.Expand(prisim.Version, spec)[0]
}

// finishJob waits for a job to finish done and returns its result.
func finishJob(t *testing.T, c *prisimclient.Client, id string) *prisimclient.JobResult {
	t.Helper()
	final, err := c.Wait(bg, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Fatalf("job %s state = %s (%s)", id, final.State, final.Error)
	}
	res, err := c.Result(bg, id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// finishMatrix waits for a matrix to finish done and returns its result.
func finishMatrix(t *testing.T, c *prisimclient.Client, id string) *prisimclient.MatrixResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(bg, 2*time.Minute)
	defer cancel()
	final, err := c.WaitMatrix(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Fatalf("matrix state = %s (%s)", final.State, final.Error)
	}
	res, err := c.MatrixResult(bg, id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestJobAndMatrixPointSimulateOnce pins the one point path: a simulate job
// and a matrix point with the same key, in flight together on one
// coordinator daemon with a local slot, simulate once on its one Engine.
func TestJobAndMatrixPointSimulateOnce(t *testing.T) {
	srv, c := boot(t, Config{Workers: 1, Coordinator: coordinator(t, fabric.Config{LocalSlots: 1}), Fabric: true})
	spec, req := onePointMatrix(100_000)

	j, err := c.Submit(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, j.ID, prisimclient.StateRunning)
	m, err := c.SubmitMatrix(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	jr := finishJob(t, c, j.ID)
	mr := finishMatrix(t, c, m.ID)

	if cs := srv.Engine().CacheStats(); cs.Executed != 1 || cs.SnapshotBuilds != 1 {
		t.Errorf("engine executed %d runs and %d snapshot builds, want 1 and 1", cs.Executed, cs.SnapshotBuilds)
	}
	if *jr.Result != mr.Points[0].Result {
		t.Error("job and matrix point results differ")
	}
}

// TestJobTakesOverQueuedMatrixPoint pins the take-over rule: with no local
// slot and no worker, a matrix point can only run when a job for the same
// key takes it off the queue, on the job's own worker.
func TestJobTakesOverQueuedMatrixPoint(t *testing.T) {
	srv, c := boot(t, Config{Workers: 1, Coordinator: coordinator(t, fabric.Config{NodeID: "solo"}), Fabric: true})
	spec, req := onePointMatrix(tinyRun)

	m, err := c.SubmitMatrix(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Submit(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	jr := finishJob(t, c, j.ID)
	mr := finishMatrix(t, c, m.ID)

	if jr.ComputedBy != "solo" || mr.Points[0].ComputedBy != "solo" {
		t.Errorf("computed by (job %q, matrix %q), want this node on both", jr.ComputedBy, mr.Points[0].ComputedBy)
	}
	if got := srv.Engine().CacheStats().Executed; got != 1 {
		t.Errorf("engine executed %d runs, want 1", got)
	}
}

// TestPlainDaemonServesRepeatsFromStore pins the plain daemon (no fabric
// control plane) over a durable store: a repeated simulate job and a
// repeated program job are served from the store, which keeps both points.
func TestPlainDaemonServesRepeatsFromStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	st, err := fabric.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	_, c := boot(t, Config{Workers: 1, Coordinator: coordinator(t, fabric.Config{Store: st})})

	for i := 0; i < 2; i++ {
		j, err := c.Submit(bg, prisimclient.JobRequest{
			Kind: prisimclient.KindSimulate, Benchmark: "gzip", FastForward: tinyFF, Run: tinyRun,
		})
		if err != nil {
			t.Fatal(err)
		}
		finishJob(t, c, j.ID)
		p, err := c.SubmitProgram(bg, []byte(e2eProgram), prisimclient.JobRequest{Run: tinyRun})
		if err != nil {
			t.Fatal(err)
		}
		finishJob(t, c, p.ID)
	}
	page, err := c.Metrics(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, page, "prisimd_jobs_store_served_total"); got != 2 {
		t.Errorf("prisimd_jobs_store_served_total = %g, want 2", got)
	}
	if st.Len() != 2 {
		t.Errorf("store holds %d entries, want 2", st.Len())
	}
	var apiErr *prisimclient.APIError
	if _, err := c.Matrices(bg); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("fabric route on a plain daemon: %v, want HTTP 404", err)
	}
}
