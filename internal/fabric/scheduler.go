package fabric

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"prisim"
	"prisim/prisimclient"
)

// schedule is the dispatch loop: it sleeps on the condition variable until
// a cold point is queued AND capacity exists somewhere (a healthy worker
// with a free slot, or a free local slot), then fans the point out. Workers
// are preferred over local slots — the coordinator's cycles belong to the
// control plane — and a retried point prefers a different worker than the
// one that just failed it.
func (c *Coordinator) schedule() {
	defer c.wg.Done()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for !c.closed && !c.dispatchableLocked() {
			c.cond.Wait()
		}
		if c.closed {
			return
		}
		// Walk the queue once; anything undispatchable right now stays put.
		var rest []*flight
		for i := 0; i < len(c.pending); i++ {
			f := c.pending[i]
			if w := c.pickWorkerLocked(f); w != nil {
				f.queued = false
				w.inflight++
				c.dispatched++
				c.wg.Add(1)
				go c.execOnWorker(w, f)
				continue
			}
			if c.localInflight < c.cfg.LocalSlots {
				f.queued = false
				c.localInflight++
				c.wg.Add(1)
				go c.execLocal(f)
				continue
			}
			rest = append(rest, f)
		}
		c.pending = rest
		if len(c.pending) > 0 {
			// Out of capacity — wait for an exec to finish or a tick.
			c.cond.Wait()
		}
	}
}

// tick periodically wakes the scheduler so quarantined workers get retried
// once their cooldown lapses even when no other event fires.
func (c *Coordinator) tick() {
	defer c.wg.Done()
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-c.rootCtx.Done():
			return
		case <-t.C:
			c.cond.Broadcast()
		}
	}
}

// dispatchableLocked reports whether any queued point could dispatch now.
func (c *Coordinator) dispatchableLocked() bool {
	if len(c.pending) == 0 {
		return false
	}
	if c.localInflight < c.cfg.LocalSlots {
		return true
	}
	for _, f := range c.pending {
		if c.pickableWorkerLocked(f) {
			return true
		}
	}
	return false
}

func (c *Coordinator) pickableWorkerLocked(f *flight) bool {
	return c.pickWorkerAtLocked(f, false) != nil
}

// affinityKey identifies the workload whose warm fast-forward snapshots a
// point's run can use on a worker. It is the benchmark alone: a worker
// engine holding any earlier fast-forward budget of the workload builds
// this point's snapshot by fast-forwarding only the gap.
func affinityKey(req prisimclient.JobRequest) string {
	return req.Benchmark
}

// pickWorkerLocked selects a worker for f, preferring (a) the worker that
// last ran this point's workload — its engine already holds the warm
// fast-forward snapshot, so the run clones instead of replaying — then
// (b) healthy workers with free slots on a round-robin, avoiding (c) the
// node that just failed the point (the idle-node fan-out rule).
// Quarantined workers become eligible again after workerCooldown. The
// chosen worker is recorded as the workload's new affinity.
func (c *Coordinator) pickWorkerLocked(f *flight) *worker {
	w := c.pickWorkerAtLocked(f, true)
	if w != nil {
		c.affinity[affinityKey(f.Request)] = w.id
	}
	return w
}

func (c *Coordinator) pickWorkerAtLocked(f *flight, advance bool) *worker {
	n := len(c.workerOrder)
	if n == 0 {
		return nil
	}
	now := time.Now()
	eligible := func(w *worker) bool {
		return w.inflight < c.cfg.WorkerSlots &&
			(w.unhealthyAt.IsZero() || now.Sub(w.unhealthyAt) >= workerCooldown)
	}
	// Workload affinity first: reusing the node that already fast-forwarded
	// this workload turns the run's warm-up into a snapshot clone.
	if id, ok := c.affinity[affinityKey(f.Request)]; ok {
		if w := c.workers[id]; w != nil && eligible(w) && w.id != f.lastWorker {
			return w
		}
	}
	var fallback *worker // eligible but same node as the last failure
	for i := 0; i < n; i++ {
		w := c.workers[c.workerOrder[(c.rr+i)%n]]
		if !eligible(w) {
			continue
		}
		if w.id == f.lastWorker {
			if fallback == nil {
				fallback = w
			}
			continue
		}
		if advance {
			c.rr = (c.rr + i + 1) % n
		}
		return w
	}
	return fallback
}

// execOnWorker runs one point on a worker daemon: submit (with 429/503
// retry honoring the server's Retry-After), wait for the terminal state,
// fetch the result. Success lands in the store and resolves every waiting
// matrix; failure re-queues the point with exponential backoff or fails
// its matrices after MaxAttempts.
func (c *Coordinator) execOnWorker(w *worker, f *flight) {
	defer c.wg.Done()
	ctx, cancel := context.WithTimeout(c.rootCtx, pointTimeout)
	defer cancel()
	res, by, err := runPoint(ctx, w.client, f.Request)

	c.mu.Lock()
	w.inflight--
	if err != nil {
		w.failures++
		w.consecFails++
		w.lastErr = err.Error()
		if w.consecFails >= 3 && w.unhealthyAt.IsZero() {
			w.unhealthyAt = time.Now()
			c.logf("worker=%s quarantined after %d consecutive failures: %v", w.id, w.consecFails, err)
		}
		c.pointFailedLocked(f, w.id, err)
		c.mu.Unlock()
		return
	}
	w.completed++
	w.consecFails = 0
	w.lastErr = ""
	if by == "" {
		by = w.id
	}
	c.mu.Unlock()

	c.pointDone(f, res, nil, by)
}

// execLocal runs one point on a local slot.
func (c *Coordinator) execLocal(f *flight) {
	defer c.wg.Done()
	ctx, cancel := context.WithTimeout(c.rootCtx, pointTimeout)
	defer cancel()
	res, out, err := c.execute(ctx, f)

	c.mu.Lock()
	c.localInflight--
	if err != nil {
		c.pointFailedLocked(f, c.nodeID, err)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()

	c.pointDone(f, res, out, c.nodeID)
}

// execute runs a point on the shared Engine.
func (c *Coordinator) execute(ctx context.Context, f *flight) (prisim.Result, []byte, error) {
	opts := f.Request.Options()
	if f.Program == nil {
		res, err := c.engine.Simulate(ctx, opts)
		return res, nil, err
	}
	opts.MemLimit = f.MemLimit
	pr, err := c.engine.SimulateProgram(ctx, f.Program, opts)
	return pr.Result, pr.Output, err
}

// pointDone persists a computed result and resolves its flight for every
// waiting matrix and job. The store append happens outside c.mu (lock
// order: c.mu is never held across store.mu acquisition from exec
// goroutines).
func (c *Coordinator) pointDone(f *flight, res prisim.Result, out []byte, by string) Entry {
	e := Entry{
		Key:        f.key,
		Kernel:     c.kernel,
		ComputedBy: by,
		Created:    time.Now(),
		Request:    f.Request,
		Result:     res,
		Output:     out,
	}
	if err := c.store.Put(e); err != nil {
		c.logf("point=%.12s store append failed: %v", f.key, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.flights, f.key)
	for i, mr := range f.waiters {
		src := srcJoin
		if i == 0 && mr == f.owner {
			src = srcExec
		}
		c.recordPointLocked(mr, f.key, res, by, src)
	}
	f.settled, f.entry = true, e
	c.wakeLocked(f)
	c.cond.Broadcast()
	return e
}

// pointFailedLocked re-queues a failed point with exponential backoff, or —
// once attempts are exhausted — fails every matrix waiting on it. Callers
// hold c.mu.
func (c *Coordinator) pointFailedLocked(f *flight, nodeID string, err error) {
	f.attempts++
	f.lastWorker = nodeID
	f.lastErr = err.Error()
	if c.closed {
		return
	}
	if f.attempts >= c.cfg.MaxAttempts {
		delete(c.flights, f.key)
		c.logf("point=%.12s failed after %d attempts: %v", f.key, f.attempts, err)
		msg := fmt.Sprintf("point %s/%s (key %.12s...) failed after %d attempts: %v",
			f.Request.Benchmark, f.Request.Policy, f.key, f.attempts, err)
		for _, mr := range f.waiters {
			c.failRunLocked(mr, msg)
		}
		f.settled, f.err = true, errors.New(msg)
		c.wakeLocked(f)
		return
	}
	backoff := c.cfg.RetryBackoff << (f.attempts - 1)
	if max := 5 * time.Second; backoff > max {
		backoff = max
	}
	c.logf("point=%.12s attempt=%d node=%s error=%v; retrying in %s", f.key, f.attempts, nodeID, err, backoff)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		select {
		case <-c.rootCtx.Done():
			return
		case <-time.After(backoff):
		}
		c.mu.Lock()
		if !c.closed && !f.queued {
			c.enqueueLocked(f)
		}
		c.mu.Unlock()
	}()
}

// enqueueLocked puts a flight on the dispatch queue and wakes the
// scheduler and any job waiting on it (which may take it over).
func (c *Coordinator) enqueueLocked(f *flight) {
	f.queued = true
	c.pending = append(c.pending, f)
	c.wakeLocked(f)
	c.cond.Broadcast()
}

// wakeLocked wakes every job waiting on f in Resolve.
func (c *Coordinator) wakeLocked(f *flight) {
	close(f.wake)
	f.wake = make(chan struct{})
}

// Point is one job's simulation point, resolved by Resolve.
type Point struct {
	// Request names the point with its budget explicit and CacheKey set
	// to its content hash; it is recorded with the result.
	Request prisimclient.JobRequest
	// Program is the assembled image of a program point (nil for a named
	// workload); MemLimit caps its simulated memory footprint.
	Program  *prisim.Program
	MemLimit uint64
}

// Resolve is the one path by which a job's point resolves: from the
// durable store; else by joining the point's in-flight run, whichever
// matrix or job started it; else by running it on the shared Engine on the
// caller's goroutine under ctx. A point a matrix has queued but not yet
// dispatched is taken over and run here. A computed result is stored once
// and handed to every waiting matrix and job; stored reports a store hit.
// If ctx ends mid-run, matrices still waiting on the point get it back on
// the queue without it counting as a failed attempt.
func (c *Coordinator) Resolve(ctx context.Context, pt Point) (e Entry, stored bool, err error) {
	key := pt.Request.CacheKey
	for {
		c.mu.Lock()
		f := c.flights[key]
		switch {
		case f == nil:
			if e, ok := c.store.Get(key); ok {
				c.mu.Unlock()
				return e, true, nil
			}
			f = &flight{Point: pt, key: key, wake: make(chan struct{})}
			c.flights[key] = f
		case f.queued: // a matrix queued it; take it over
			f.queued = false
			c.pending = slices.DeleteFunc(c.pending, func(p *flight) bool { return p == f })
		default:
			wake := f.wake
			c.mu.Unlock()
			select {
			case <-wake:
			case <-ctx.Done():
				return Entry{}, false, ctx.Err()
			}
			c.mu.Lock()
			settled, e, err := f.settled, f.entry, f.err
			c.mu.Unlock()
			if settled {
				return e, false, err
			}
			continue
		}
		c.mu.Unlock()
		e, err := c.runOwned(ctx, f)
		return e, false, err
	}
}

// runOwned runs a flight the calling job owns and settles it through
// pointDone. A run that fails, is cancelled or panics releases the flight.
func (c *Coordinator) runOwned(ctx context.Context, f *flight) (Entry, error) {
	ran := false
	defer func() {
		if !ran { // the run panicked; the panic propagates to the job
			c.mu.Lock()
			c.releaseLocked(f, errors.New("point run panicked"))
			c.mu.Unlock()
		}
	}()
	res, out, err := c.execute(ctx, f)
	ran = true
	if err != nil {
		failure := err
		if ctx.Err() != nil {
			failure = nil // the job gave up; the point did not fail
		}
		c.mu.Lock()
		c.releaseLocked(f, failure)
		c.mu.Unlock()
		return Entry{}, err
	}
	return c.pointDone(f, res, out, c.nodeID), nil
}

// releaseLocked hands back a flight whose owning job did not complete it.
// With no matrix waiting, the flight is dropped and waiting jobs start
// afresh. Otherwise it returns to the queue: as a failed attempt when the
// run failed, free of charge when the job only gave up.
func (c *Coordinator) releaseLocked(f *flight, failure error) {
	switch {
	case len(f.waiters) == 0:
		delete(c.flights, f.key)
		c.wakeLocked(f)
	case failure != nil:
		c.pointFailedLocked(f, c.nodeID, failure)
	default:
		c.enqueueLocked(f)
	}
}

// runPoint drives one point through a worker's job API: submit, wait,
// fetch. Queue-full backpressure retries with the server's suggested
// delay until the point context expires.
func runPoint(ctx context.Context, client *prisimclient.Client, req prisimclient.JobRequest) (prisim.Result, string, error) {
	var job *prisimclient.Job
	for {
		var err error
		job, err = client.Submit(ctx, req)
		if err == nil {
			break
		}
		var apiErr *prisimclient.APIError
		retryable := errors.Is(err, prisimclient.ErrQueueFull) ||
			(errors.As(err, &apiErr) && apiErr.StatusCode == 503)
		if !retryable {
			return prisim.Result{}, "", fmt.Errorf("submit: %w", err)
		}
		delay := 100 * time.Millisecond
		if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
			delay = apiErr.RetryAfter
		}
		select {
		case <-ctx.Done():
			return prisim.Result{}, "", fmt.Errorf("submit: %w", ctx.Err())
		case <-time.After(delay):
		}
	}
	done, err := client.Wait(ctx, job.ID, 50*time.Millisecond)
	if err != nil {
		return prisim.Result{}, "", fmt.Errorf("wait %s: %w", job.ID, err)
	}
	if done.State != prisimclient.StateDone {
		return prisim.Result{}, "", fmt.Errorf("job %s finished %s: %s", job.ID, done.State, done.Error)
	}
	jr, err := client.Result(ctx, job.ID)
	if err != nil {
		return prisim.Result{}, "", fmt.Errorf("result %s: %w", job.ID, err)
	}
	if jr.Result == nil {
		return prisim.Result{}, "", fmt.Errorf("job %s: done without a simulate result", job.ID)
	}
	return *jr.Result, jr.ComputedBy, nil
}
