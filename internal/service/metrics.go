package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"prisim"
	"prisim/prisimclient"
)

// latencyWindow bounds the job-latency sample ring the quantiles are
// computed over; old samples age out once the window wraps.
const latencyWindow = 1024

// metrics is the server's observability state. All methods are safe for
// concurrent use; rendering takes one snapshot under the lock.
type metrics struct {
	mu sync.Mutex

	submitted    uint64 // guarded by mu
	rejected     uint64 // guarded by mu; 429: queue full
	httpRequests uint64 // guarded by mu

	terminal map[prisimclient.JobState]uint64 // guarded by mu; done/failed/cancelled counts
	panics   uint64                           // guarded by mu
	storeHit uint64                           // guarded by mu; simulate/program jobs served from the durable store

	programsAssembled     uint64 // guarded by mu; program sources that assembled cleanly
	programAssemblyErrors uint64 // guarded by mu; program sources rejected with diagnostics
	programLintWarnings   uint64 // guarded by mu; priscan warning findings on accepted programs
	programLintRejected   uint64 // guarded by mu; programs rejected by priscan error findings

	latencies []time.Duration // guarded by mu; ring of recent terminal job latencies
	latNext   int             // guarded by mu

	simSeconds   float64 // guarded by mu; wall-clock spent inside completed simulate jobs
	simCommitted uint64  // guarded by mu; instructions committed by completed simulate jobs
}

func newMetrics() *metrics {
	return &metrics{terminal: make(map[prisimclient.JobState]uint64)}
}

func (m *metrics) incSubmitted()   { m.mu.Lock(); m.submitted++; m.mu.Unlock() }
func (m *metrics) incRejected()    { m.mu.Lock(); m.rejected++; m.mu.Unlock() }
func (m *metrics) incHTTPRequest() { m.mu.Lock(); m.httpRequests++; m.mu.Unlock() }
func (m *metrics) incPanics()      { m.mu.Lock(); m.panics++; m.mu.Unlock() }
func (m *metrics) incStoreHit()    { m.mu.Lock(); m.storeHit++; m.mu.Unlock() }

func (m *metrics) incProgramAssembled()     { m.mu.Lock(); m.programsAssembled++; m.mu.Unlock() }
func (m *metrics) incProgramAssemblyError() { m.mu.Lock(); m.programAssemblyErrors++; m.mu.Unlock() }
func (m *metrics) incProgramLintRejected()  { m.mu.Lock(); m.programLintRejected++; m.mu.Unlock() }

func (m *metrics) addProgramLintWarnings(n int) {
	m.mu.Lock()
	m.programLintWarnings += uint64(n)
	m.mu.Unlock()
}

// observeTerminal records a job reaching a terminal state after latency
// (measured from submit so queueing delay counts — that is what a client
// experiences under backpressure).
func (m *metrics) observeTerminal(state prisimclient.JobState, latency time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.terminal[state]++
	if len(m.latencies) < latencyWindow {
		m.latencies = append(m.latencies, latency)
	} else {
		m.latencies[m.latNext] = latency
		m.latNext = (m.latNext + 1) % latencyWindow
	}
}

// observeSimulate feeds the throughput gauge from one finished simulate job.
func (m *metrics) observeSimulate(committed uint64, busy time.Duration) {
	m.mu.Lock()
	m.simCommitted += committed
	m.simSeconds += busy.Seconds()
	m.mu.Unlock()
}

// quantile returns the q-quantile (0..1) of the recorded latencies, in
// seconds, using the nearest-rank method on a sorted copy.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// storeSample is a point-in-time snapshot of the result store for the
// metrics page.
type storeSample struct {
	entries      int
	hits, misses uint64
}

// render writes the metrics page in Prometheus text exposition format.
// queueDepth/queueCap/running/jobsTracked/store are sampled by the caller;
// cache comes from the shared Engine.
func (m *metrics) render(sb *strings.Builder, cache prisim.CacheStats, queueDepth, queueCap, running, jobsTracked int, draining bool, store storeSample) {
	m.mu.Lock()
	submitted, rejected, httpReqs, panics := m.submitted, m.rejected, m.httpRequests, m.panics
	storeHit := m.storeHit
	progOK, progErr := m.programsAssembled, m.programAssemblyErrors
	lintWarn, lintRej := m.programLintWarnings, m.programLintRejected
	terminal := make(map[prisimclient.JobState]uint64, len(m.terminal))
	for k, v := range m.terminal {
		terminal[k] = v
	}
	lats := make([]float64, len(m.latencies))
	for i, d := range m.latencies {
		lats[i] = d.Seconds()
	}
	simCommitted, simSeconds := m.simCommitted, m.simSeconds
	m.mu.Unlock()

	sort.Float64s(lats)
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	fmt.Fprintf(sb, "# HELP prisimd_build_info Build metadata.\n# TYPE prisimd_build_info gauge\nprisimd_build_info{version=%q} 1\n", prisim.Version)
	counter("prisimd_jobs_submitted_total", "Jobs accepted into the queue.", submitted)
	counter("prisimd_jobs_rejected_total", "Submissions rejected with 429 (queue full).", rejected)
	sb.WriteString("# HELP prisimd_jobs_total Jobs that reached a terminal state, by state.\n# TYPE prisimd_jobs_total counter\n")
	for _, st := range []prisimclient.JobState{prisimclient.StateDone, prisimclient.StateFailed, prisimclient.StateCancelled} {
		fmt.Fprintf(sb, "prisimd_jobs_total{state=%q} %d\n", st, terminal[st])
	}
	counter("prisimd_worker_panics_total", "Worker panics recovered into job failures.", panics)
	counter("prisimd_programs_assembled_total", "User-submitted program sources that assembled cleanly.", progOK)
	counter("prisimd_program_assembly_errors_total", "User-submitted program sources rejected with diagnostics (422).", progErr)
	counter("prisimd_programs_lint_warnings_total", "Priscan warning findings reported on accepted programs.", lintWarn)
	counter("prisimd_programs_lint_rejected_total", "Programs rejected with 422 by priscan error findings.", lintRej)
	gauge("prisimd_queue_depth", "Jobs waiting in the queue.", queueDepth)
	gauge("prisimd_queue_capacity", "Queue capacity.", queueCap)
	gauge("prisimd_jobs_running", "Jobs currently executing.", running)
	gauge("prisimd_jobs_tracked", "Jobs the server still remembers.", jobsTracked)
	d := 0
	if draining {
		d = 1
	}
	gauge("prisimd_draining", "1 while the server is draining (readyz fails).", d)

	gauge("prisimd_store_entries", "Results in the content-addressed store.", store.entries)
	counter("prisimd_store_hits_total", "Store lookups that found an entry.", store.hits)
	counter("prisimd_store_misses_total", "Store lookups that found nothing.", store.misses)
	counter("prisimd_jobs_store_served_total", "Simulate and program jobs resolved from the store without an engine run.", storeHit)

	counter("prisimd_cache_runs_executed_total", "Distinct simulations executed by the shared engine, for jobs and matrix points.", uint64(cache.Executed))
	counter("prisimd_cache_hits_total", "Requests answered from the completed-run cache.", uint64(cache.Hits))
	counter("prisimd_cache_coalesced_total", "Requests coalesced onto another caller's in-flight run.", uint64(cache.Coalesced))
	ratio := 0.0
	if tot := cache.Executed + cache.Hits + cache.Coalesced; tot > 0 {
		ratio = float64(cache.Hits+cache.Coalesced) / float64(tot)
	}
	gaugeF("prisimd_cache_hit_ratio", "Fraction of simulation requests served without a fresh run.", ratio)

	counter("prisimd_snapshot_builds_total", "Warm states built to fill the snapshot cache, each from instruction 0 or from an earlier snapshot of the same workload.", uint64(cache.SnapshotBuilds))
	counter("prisimd_snapshot_ff_instructions_total", "Instructions fast-forwarded to build warm-state snapshots.", cache.SnapshotFFInstructions)
	counter("prisimd_snapshot_hits_total", "Simulations constructed from a cached warm state instead of replaying the fast-forward.", uint64(cache.SnapshotHits))
	gaugeF("prisimd_snapshot_resident_bytes", "Resident bytes of cached warm fast-forward states.", float64(cache.SnapshotBytes))

	counter("prisimd_sim_committed_instructions_total", "Instructions committed by finished simulate jobs.", simCommitted)
	ips := 0.0
	if simSeconds > 0 {
		ips = float64(simCommitted) / simSeconds
	}
	gaugeF("prisimd_sim_instr_per_second", "Committed instructions per wall-clock second across finished simulate jobs.", ips)

	sb.WriteString("# HELP prisimd_job_latency_seconds Submit-to-terminal job latency quantiles over the recent window.\n# TYPE prisimd_job_latency_seconds gauge\n")
	fmt.Fprintf(sb, "prisimd_job_latency_seconds{quantile=\"0.5\"} %g\n", quantile(lats, 0.5))
	fmt.Fprintf(sb, "prisimd_job_latency_seconds{quantile=\"0.99\"} %g\n", quantile(lats, 0.99))
	counter("prisimd_http_requests_total", "HTTP requests served.", httpReqs)
}
