package fabric

import (
	"context"
	"errors"
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
