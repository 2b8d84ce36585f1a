package service

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"prisim/internal/fabric"
	"prisim/prisimclient"
)

// TestFabricEndpointsRoundTrip drives every /api/v1/fabric endpoint through
// prisimclient against a coordinator daemon with one registered worker
// daemon, over real HTTP.
func TestFabricEndpointsRoundTrip(t *testing.T) {
	workerSrv := New(Config{Workers: 2, NodeID: "peer"})
	workerTS := httptest.NewServer(workerSrv.Handler())
	t.Cleanup(func() {
		workerSrv.Close()
		workerTS.Close()
	})

	coordSrv := New(Config{Workers: 1, Coordinator: coordinator(t, fabric.Config{NodeID: "coord"}), Fabric: true})
	coordTS := httptest.NewServer(coordSrv.Handler())
	t.Cleanup(func() {
		coordSrv.Close()
		coordTS.Close()
	})
	c := prisimclient.NewClient(coordTS.URL)

	info, err := c.RegisterWorker(bg, workerTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := c.Workers(bg)
	if err != nil || len(ws) != 1 || ws[0].ID != info.ID {
		t.Fatalf("Workers = %+v, %v; want the one just registered", ws, err)
	}

	spec := prisimclient.Matrix{
		Benchmarks: []string{"gzip"}, Policies: []string{"base", "er"},
		FastForward: tinyFF, Run: tinyRun,
	}
	status, err := c.SubmitMatrix(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if status.Points != 2 {
		t.Fatalf("matrix points = %d, want 2", status.Points)
	}
	// A result fetch before completion is a 409 (conflict), not a 404. The
	// matrix may legitimately already be done on a fast machine, so only a
	// wrong error classification fails the test.
	if _, rerr := c.MatrixResult(bg, status.ID); rerr != nil {
		var apiErr *prisimclient.APIError
		if !errors.As(rerr, &apiErr) || apiErr.StatusCode != 409 {
			t.Errorf("early result fetch: %v, want HTTP 409", rerr)
		}
	}

	final, err := c.WaitMatrix(bg, status.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Fatalf("matrix state = %s (%s)", final.State, final.Error)
	}
	got, err := c.MatrixStatus(bg, status.ID)
	if err != nil || got.State != prisimclient.StateDone {
		t.Fatalf("MatrixStatus = %+v, %v", got, err)
	}
	ms, err := c.Matrices(bg)
	if err != nil || len(ms) != 1 {
		t.Fatalf("Matrices = %+v, %v; want exactly one", ms, err)
	}
	res, err := c.MatrixResult(bg, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 || len(res.Points) != 2 {
		t.Fatalf("MatrixResult: %d tables, %d points; want tables and 2 points", len(res.Tables), len(res.Points))
	}
	for _, p := range res.Points {
		if p.ComputedBy != "peer" {
			t.Errorf("point %s computed by %q, want the worker daemon peer", p.Request.Policy, p.ComputedBy)
		}
	}

	if err := c.DeregisterWorker(bg, info.ID); err != nil {
		t.Fatal(err)
	}
	ws, err = c.Workers(bg)
	if err != nil || len(ws) != 0 {
		t.Fatalf("Workers after deregister = %+v, %v; want none", ws, err)
	}
	// Unknown matrix IDs are 404s.
	if _, err := c.MatrixStatus(bg, "mx-nope"); err == nil {
		t.Error("unknown matrix id must 404")
	}
}
