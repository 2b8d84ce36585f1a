package fabric

import (
	"context"
	"errors"
	"log"
	"strings"
	"testing"
	"time"

	"prisim"
	"prisim/prisimclient"
)

// TestCancelledJobHandsFlightToMatrix cancels a job that owns a flight a
// matrix has joined. The matrix must still complete, on a local slot, and
// the cancellation must not count as a failed attempt: with MaxAttempts 1
// a counted attempt would fail the matrix outright.
func TestCancelledJobHandsFlightToMatrix(t *testing.T) {
	st, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	eng := prisim.NewEngine()
	c, err := New(Config{Store: st, Engine: eng, LocalSlots: 1, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := prisimclient.Matrix{
		Benchmarks: []string{"gzip"}, Policies: []string{"base"},
		FastForward: 300, Run: 100_000,
	}
	req := Expand(c.kernel, spec)[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobErr := make(chan error, 1)
	go func() {
		_, _, err := c.Resolve(ctx, Point{Request: req})
		jobErr <- err
	}()

	// Wait until the job owns the point's flight.
	for deadline := time.Now().Add(30 * time.Second); ; {
		c.mu.Lock()
		f := c.flights[req.CacheKey]
		owned := f != nil && !f.queued
		c.mu.Unlock()
		if owned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the job never took the point")
		}
		time.Sleep(time.Millisecond)
	}
	ms, _, err := c.SubmitMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Coalesced != 1 {
		t.Fatalf("matrix coalesced %d points, want 1 (joined the job's flight)", ms.Coalesced)
	}
	cancel()
	if err := <-jobErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job resolved with %v, want context.Canceled", err)
	}

	wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer wcancel()
	final, err := c.WaitMatrix(wctx, ms.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Fatalf("matrix state = %s (%s), want done", final.State, final.Error)
	}
	if got := eng.CacheStats().Executed; got != 1 {
		t.Errorf("engine completed %d runs, want 1 (the cancelled run is not one)", got)
	}
	if _, ok := st.Get(req.CacheKey); !ok {
		t.Error("the matrix's result was not stored")
	}
}

// TestMatrixDuplicatePointsCountOnce submits a spec that names one point
// twice (Widths [4, 4]; Validate accepts it so old records still replay).
// The run keeps one request per cache key, so its status, counters, log
// line and result each see the point once.
func TestMatrixDuplicatePointsCountOnce(t *testing.T) {
	st, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	var logs strings.Builder
	c, err := New(Config{Store: st, Engine: prisim.NewEngine(), LocalSlots: 1, Logger: log.New(&logs, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := prisimclient.Matrix{
		Benchmarks: []string{"gzip"}, Policies: []string{"base"}, Widths: []int{4, 4},
		FastForward: 300, Run: 1500,
	}
	status, _, err := c.SubmitMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	if status.Points != 1 {
		t.Errorf("submitted Points = %d, want 1", status.Points)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := c.WaitMatrix(ctx, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != prisimclient.StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	if final.Points != 1 || final.StoreHits+final.Executed != 1 || final.Coalesced != 0 {
		t.Errorf("final Points = %d, StoreHits+Executed = %d, Coalesced = %d; want 1, 1, 0",
			final.Points, final.StoreHits+final.Executed, final.Coalesced)
	}
	res, err := c.MatrixResult(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Errorf("MatrixResult has %d points, want 1", len(res.Points))
	}
	if !strings.Contains(logs.String(), "points=1 hits=0 cold=1") {
		t.Errorf("submit log does not count the point once:\n%s", logs.String())
	}
}
