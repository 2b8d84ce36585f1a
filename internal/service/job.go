package service

import (
	"context"
	"sync"
	"time"

	"prisim"
	"prisim/internal/fabric"
	"prisim/prisimclient"
)

// job is the server-side state of one submitted request. The exported view
// (prisimclient.Job) is produced under the job's lock by view().
type job struct {
	id    string
	req   prisimclient.JobRequest
	point fabric.Point // simulate and program jobs: the point to resolve, its CacheKey set; set before enqueue, immutable after

	warnings []prisimclient.Diagnostic // program jobs: priscan warning findings; set before enqueue, immutable after

	ctx    context.Context    // derived from the server's root context
	cancel context.CancelFunc // DELETE and drain-deadline both land here

	mu         sync.Mutex
	state      prisimclient.JobState                // guarded by mu
	errMsg     string                               // guarded by mu
	done, tot  int                                  // guarded by mu; progress: resolved / requested simulation points
	created    time.Time                            // guarded by mu
	started    time.Time                            // guarded by mu
	finished   time.Time                            // guarded by mu
	result     *prisim.Result                       // guarded by mu; simulate and program jobs
	tables     []prisim.Table                       // guarded by mu; experiment jobs
	output     []byte                               // guarded by mu; program console output
	computedBy string                               // guarded by mu; node that produced the result
	subs       map[chan prisimclient.Event]struct{} // guarded by mu
	doneCh     chan struct{}                        // closed when the job reaches a terminal state
	cancelAsk  bool                                 // guarded by mu; DELETE arrived (distinguishes cancel from timeout)
}

func newJob(id string, req prisimclient.JobRequest, parent context.Context, now time.Time) *job {
	ctx, cancel := context.WithCancel(parent)
	return &job{
		id:      id,
		req:     req,
		ctx:     ctx,
		cancel:  cancel,
		state:   prisimclient.StateQueued,
		created: now,
		subs:    make(map[chan prisimclient.Event]struct{}),
		doneCh:  make(chan struct{}),
	}
}

// view snapshots the job for JSON responses.
func (j *job) view() prisimclient.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *job) viewLocked() prisimclient.Job {
	return prisimclient.Job{
		ID:            j.id,
		Request:       j.req,
		State:         j.state,
		Error:         j.errMsg,
		Progress:      prisimclient.Progress{Done: j.done, Total: j.tot},
		Created:       j.created,
		Started:       j.started,
		Finished:      j.finished,
		KernelVersion: prisim.Version,
		CacheKey:      j.point.Request.CacheKey,
		ComputedBy:    j.computedBy,
		Warnings:      j.warnings,
	}
}

// event builds an SSE event for the job's current state. Callers hold j.mu.
func (j *job) eventLocked(typ string) prisimclient.Event {
	return prisimclient.Event{
		Type:     typ,
		JobID:    j.id,
		State:    j.state,
		Error:    j.errMsg,
		Progress: prisimclient.Progress{Done: j.done, Total: j.tot},
	}
}

// publishLocked fans an event out to subscribers without blocking: a
// subscriber whose buffer is full misses intermediate events but never the
// final state, because SSE streams watch doneCh as well.
func (j *job) publishLocked(ev prisimclient.Event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers an SSE listener and returns its channel, a snapshot
// event to send first, and an unsubscribe func.
func (j *job) subscribe() (ch chan prisimclient.Event, first prisimclient.Event, unsub func()) {
	ch = make(chan prisimclient.Event, 64)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	first = j.eventLocked("state")
	j.mu.Unlock()
	return ch, first, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// setProgress updates the run counters and notifies subscribers.
func (j *job) setProgress(done, total int) {
	j.mu.Lock()
	j.done, j.tot = done, total
	j.publishLocked(j.eventLocked("progress"))
	j.mu.Unlock()
}

// start moves queued -> running; it fails if the job was cancelled while
// queued.
func (j *job) start(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != prisimclient.StateQueued {
		return false
	}
	j.state = prisimclient.StateRunning
	j.started = now
	j.publishLocked(j.eventLocked("state"))
	return true
}

// finish moves the job to a terminal state exactly once; later calls are
// ignored (e.g. a cancel racing the worker's own completion).
func (j *job) finish(state prisimclient.JobState, errMsg string, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.finished = now
	j.publishLocked(j.eventLocked("state"))
	close(j.doneCh)
	return true
}

// requestCancel is the DELETE path: cancel the context and, if the job is
// still queued, resolve it to cancelled immediately (a worker that later
// pops it will skip it).
func (j *job) requestCancel(now time.Time) {
	j.mu.Lock()
	j.cancelAsk = true
	queued := j.state == prisimclient.StateQueued
	j.mu.Unlock()
	j.cancel()
	if queued {
		j.finish(prisimclient.StateCancelled, "cancelled while queued", now)
	}
}

// cancelRequested reports whether a DELETE arrived for the job.
func (j *job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelAsk
}

// setPoint stores a resolved point's result, console output, and
// producing node (before finish flips the state).
func (j *job) setPoint(e fabric.Entry) {
	j.mu.Lock()
	j.result, j.output, j.computedBy = &e.Result, e.Output, e.ComputedBy
	j.mu.Unlock()
}

// setTables stores an experiment's tables (before finish flips the state).
func (j *job) setTables(tables []prisim.Table) {
	j.mu.Lock()
	j.tables = tables
	j.mu.Unlock()
}

// payload returns the stored result, output, and provenance (valid once
// state == done).
func (j *job) payload() (*prisim.Result, []prisim.Table, []byte, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.tables, j.output, j.computedBy
}

// stateNow returns the current state.
func (j *job) stateNow() prisimclient.JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}
