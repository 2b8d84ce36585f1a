package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prisim"
	"prisim/internal/asm"
	"prisim/internal/bpred"
	"prisim/internal/memsys"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

// paperPRIGainPct is Figure 10's mean PRI-rc-ckpt speedup on the integer
// suite at 4-wide, in percent.
const paperPRIGainPct = 7.3

// enginePoint is one simulation point of the sweep or sampled workload.
// Points of one row form a small matrix of one benchmark: its four policies
// at one width on sweep, its base/PRI pair at one offset on sampled.
type enginePoint struct {
	Key  string
	Row  int
	Opts prisim.Options
}

func pointKey(o prisim.Options) string {
	return fmt.Sprintf("%s/w%d/%s/ff%d/run%d", o.Benchmark, o.Width, o.Policy, o.FastForward, o.Run)
}

// sweepPoints is the fig8-mix matrix: the 13 integer workloads at both
// widths under base, ER, PRI-rc-ckpt and PRI+ER, at the default budget.
func sweepPoints() []enginePoint {
	var pts []enginePoint
	row := 0
	for _, w := range workloads.Integer() {
		for _, width := range []int{4, 8} {
			for _, pol := range []prisim.Policy{prisim.PolicyBase, prisim.PolicyER, prisim.PolicyPRI, prisim.PolicyPRIPlusER} {
				o := prisim.Options{Benchmark: w.Name, Width: width, Policy: pol,
					FastForward: prisim.DefaultFastForward, Run: prisim.DefaultRun}
				pts = append(pts, enginePoint{Key: pointKey(o), Row: row, Opts: o})
			}
			row++
		}
	}
	return pts
}

// Sampled simulation: every workload is skipped to sampledOffsets evenly
// spaced fast-forward points and measured for a short window under base
// and PRI-rc-ckpt at 4-wide. The last offset plus the window stays below
// the shortest workload's halt point (facerec, about 528k instructions).
const (
	sampledOffsets = 8
	sampledStride  = 60_000
	sampledWindow  = 4_000
)

func sampledPoints() []enginePoint {
	var pts []enginePoint
	row := 0
	for _, w := range workloads.All() {
		for k := 1; k <= sampledOffsets; k++ {
			for _, pol := range []prisim.Policy{prisim.PolicyBase, prisim.PolicyPRI} {
				o := prisim.Options{Benchmark: w.Name, Width: 4, Policy: pol,
					FastForward: uint64(k * sampledStride), Run: sampledWindow}
				pts = append(pts, enginePoint{Key: pointKey(o), Row: row, Opts: o})
			}
			row++
		}
	}
	return pts
}

// orderRows returns the point list in a seeded order: each benchmark's rows
// are shuffled among themselves, while benchmarks keep their suite order and
// the points inside a row keep theirs. Points of one benchmark therefore stay
// adjacent, as the harness submits a matrix grouped by workload, and the set
// of warm states resident at any time does not depend on the seed.
func orderRows(pts []enginePoint, seed int64) []enginePoint {
	var rows [][]enginePoint
	for _, p := range pts {
		for p.Row >= len(rows) {
			rows = append(rows, nil)
		}
		rows[p.Row] = append(rows[p.Row], p)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]enginePoint, 0, len(pts))
	for start := 0; start < len(rows); {
		end := start
		for end < len(rows) && rows[end][0].Opts.Benchmark == rows[start][0].Opts.Benchmark {
			end++
		}
		for _, i := range rng.Perm(end - start) {
			out = append(out, rows[start+i]...)
		}
		start = end
	}
	return out
}

// checkBudget verifies that a point committed its full measurement budget:
// at least Run instructions, overshooting by less than one commit group.
func checkBudget(o prisim.Options, r prisim.Result) error {
	width := uint64(o.Width)
	if width == 0 {
		width = 4
	}
	if r.Committed < o.Run || r.Committed >= o.Run+width {
		return fmt.Errorf("%s committed %d instructions, want %d", pointKey(o), r.Committed, o.Run)
	}
	return nil
}

// priGainPct is the Figure 10 statistic over the 4-wide integer points of a
// result set: the mean over (benchmark, fast-forward) pairs of
// IPC(PRI-rc-ckpt)/IPC(base) - 1, in percent. The pairs are summed in key
// order, so the value is bit for bit the same whatever order the points
// come in.
func priGainPct(pts []enginePoint, res []prisim.Result) (float64, int) {
	type pair struct{ base, pri float64 }
	pairs := map[string]*pair{}
	var order []string
	intBench := map[string]bool{}
	for _, w := range workloads.Integer() {
		intBench[w.Name] = true
	}
	for i, p := range pts {
		o := p.Opts
		if !intBench[o.Benchmark] || o.Width != 4 || (o.Policy != prisim.PolicyBase && o.Policy != prisim.PolicyPRI) {
			continue
		}
		k := fmt.Sprintf("%s/%d", o.Benchmark, o.FastForward)
		pr, ok := pairs[k]
		if !ok {
			pr = &pair{}
			pairs[k] = pr
			order = append(order, k)
		}
		if o.Policy == prisim.PolicyBase {
			pr.base = res[i].IPC
		} else {
			pr.pri = res[i].IPC
		}
	}
	sort.Strings(order)
	var gains samples
	for _, k := range order {
		if pr := pairs[k]; pr.base > 0 && pr.pri > 0 {
			gains = append(gains, 100*(pr.pri/pr.base-1))
		}
	}
	return gains.mean(), len(gains)
}

// priGapPP is |paper gain - measured gain| in percentage points.
func priGapPP(gainPct float64) float64 { return math.Abs(paperPRIGainPct - gainPct) }

// heapSampler records the peak live Go heap of this process while it runs:
// the heap marked live by the latest collection. Unlike the heap including
// garbage, it depends little on when collections happen to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// passResult is one cold Engine's run over the whole point list.
type passResult struct {
	Wall     time.Duration // engine construction to the last result
	HeapMB   float64       // peak live Go heap during the pass
	Results  []prisim.Result
	SimMs    samples // point latency
	RowMs    samples // first submit to last result of one row
	Failures []string
}

// enginePass runs every point once on a cold Engine with nproc closed-loop
// clients, each submitting its next point when the previous one returns.
func enginePass(ctx context.Context, pts []enginePoint, nproc int) *passResult {
	pr := &passResult{Results: make([]prisim.Result, len(pts))}
	heap := startHeapSampler()
	t0 := time.Now()
	eng := prisim.NewEngine(prisim.WithParallelism(nproc))
	var next atomic.Int64
	var mu sync.Mutex
	rowFirst := map[int]time.Time{}
	rowLast := map[int]time.Time{}
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(pts) {
					return
				}
				p := pts[i]
				start := time.Now()
				res, err := eng.Simulate(ctx, p.Opts)
				end := time.Now()
				mu.Lock()
				if err == nil {
					err = checkBudget(p.Opts, res)
				}
				if err != nil {
					pr.Failures = append(pr.Failures, err.Error())
				}
				pr.Results[i] = res
				pr.SimMs = append(pr.SimMs, ms(end.Sub(start)))
				if f, ok := rowFirst[p.Row]; !ok || start.Before(f) {
					rowFirst[p.Row] = start
				}
				if l := rowLast[p.Row]; end.After(l) {
					rowLast[p.Row] = end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	pr.Wall = time.Since(t0)
	pr.HeapMB = heap.finish()
	for row, f := range rowFirst {
		pr.RowMs = append(pr.RowMs, ms(rowLast[row].Sub(f)))
	}
	return pr
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// engineSetupRuns is how many times a run of sweep or sampled sets up, for
// the median set-up time.
const engineSetupRuns = 101

// measureEngineSetup times the set-up of sweep and sampled in process, from
// constructing the Engine until the seeded point queue is built and the
// first point could be submitted.
func measureEngineSetup(cfg config, pts []enginePoint) samples {
	out := make(samples, 0, engineSetupRuns)
	for i := 0; i < engineSetupRuns; i++ {
		t0 := time.Now()
		eng := prisim.NewEngine(prisim.WithParallelism(cfg.nproc))
		q := orderRows(pts, cfg.seed)
		out = append(out, time.Since(t0).Seconds())
		runtime.KeepAlive(eng)
		runtime.KeepAlive(q)
	}
	return out
}

// runEngineWorkload is the metric run of sweep and sampled: cold passes
// over the point list until the measuring time is used up.
func runEngineWorkload(cfg config, rep *report, pts []enginePoint) {
	ctx := context.Background()
	setup := measureEngineSetup(cfg, pts)
	pts = orderRows(pts, cfg.seed)

	var passes []*passResult
	var wall time.Duration
	for wall < time.Duration(cfg.seconds)*time.Second {
		pr := enginePass(ctx, pts, cfg.nproc)
		passes = append(passes, pr)
		wall += pr.Wall
	}
	var sim, row, heap samples
	var first map[string]string
	for n, pr := range passes {
		sim = append(sim, pr.SimMs...)
		row = append(row, pr.RowMs...)
		heap = append(heap, pr.HeapMB)
		rep.ops += len(pts)
		for _, f := range pr.Failures {
			rep.fail("pass %d: %s", n, f)
		}
		ds := digests(keyed(pts, pr.Results))
		if first == nil {
			first = ds
			continue
		}
		if diff := diffDigests(first, ds); len(diff) > 0 {
			rep.fail("pass %d: result digests differ from pass 0 for %v", n, diff)
		}
	}
	gain, pairs := priGainPct(pts, passes[0].Results)
	points := len(passes) * len(pts)
	rep.notef("passes %d, points %d", len(passes), points)
	rep.notef("PRI-rc-ckpt int/4w mean speedup %v%% over %d pairs (paper %.1f%%)", gain, pairs, paperPRIGainPct)
	rep.notef("digest %s", combinedDigest(first))
	checkExpected(rep, cfg.workload, combinedDigest(first), gain)
	for _, w := range workloads.All() {
		if d, ok := first[w.Name]; ok {
			rep.notef("digest %-9s %s", w.Name, d)
		}
	}
	secs := wall.Seconds()
	// On the engine workloads every job is one point.
	rep.set("points_per_s", float64(points)/secs, "1/s", points)
	rep.set("jobs_per_s", float64(points)/secs, "1/s", points)
	rep.set("pri_gain_gap_pp", priGapPP(gain), "pp", pairs)
	rep.setPercentiles("simulate", sim)
	rep.setPercentiles("matrix", row)
	rep.set("setup_s", setup.median(), "s", len(setup))
	// The peak of one pass depends on how concurrent allocations happen to
	// line up with collections; the median over passes is steadier.
	rep.set("mem_peak_mb", heap.median(), "MiB", len(heap))
}

func keyed(pts []enginePoint, res []prisim.Result) []keyedResult {
	out := make([]keyedResult, len(pts))
	for i, p := range pts {
		out[i] = keyedResult{Key: p.Key, Result: res[i]}
	}
	return out
}

// ctxChunk mirrors the harness: budgeted phases run in slices of this many
// instructions, which is what the Engine's results are defined by.
const ctxChunk = 16 * 1024

// runChunked drives a budgeted phase in slices exactly as the harness does.
func runChunked(phase func(uint64) uint64, n uint64) uint64 {
	var total uint64
	for n > 0 {
		c := uint64(ctxChunk)
		if n < c {
			c = n
		}
		got := phase(c)
		total += got
		if got < c || got >= n {
			break
		}
		n -= got
	}
	return total
}

// machineConfig resolves an Options' machine through the public JSON form,
// so the replay simulates exactly the configuration the Engine does.
func machineConfig(o prisim.Options) (ooo.Config, error) {
	var cfg ooo.Config
	b, err := prisim.MachineJSON(o)
	if err == nil {
		err = json.Unmarshal(b, &cfg)
	}
	return cfg, err
}

// resultOf converts a finished pipeline into the public Result the way the
// Engine does.
func resultOf(p *ooo.Pipeline, cfg ooo.Config, w workloads.Workload) prisim.Result {
	st := p.Stats()
	life := p.Renamer().IntStats()
	if w.Class == workloads.FP {
		life = p.Renamer().FPStats()
	}
	aw, wr, rr := life.AvgPhases()
	return prisim.Result{
		Benchmark:      w.Name,
		Machine:        cfg.Name,
		IntPRs:         cfg.Rename.IntPRs,
		FPPRs:          cfg.Rename.FPPRs,
		IPC:            st.IPC(),
		Cycles:         st.Cycles,
		Committed:      st.Committed,
		IntOccupancy:   st.AvgIntOccupancy(),
		FPOccupancy:    st.AvgFPOccupancy(),
		AllocToWrite:   aw,
		WriteToRead:    wr,
		ReadToRelease:  rr,
		InlineFraction: st.InlineFraction(),
		MispredictRate: st.MispredictRate(),
		BranchResolved: st.BranchResolved,
		DL1MissRate:    p.Mem().DL1.MissRate(),
		L2MissRate:     p.Mem().L2.MissRate(),
		Replays:        st.Replays,
		InlinedResults: life.InlinedResults,
		WAWSuppressed:  life.WAWSuppressed,
		DeferredFrees:  life.DeferredFrees,
		EarlyFrees:     life.EarlyFrees,
	}
}

// warmKey is everything a fast-forward's outcome depends on, as in the
// harness's snapshot cache.
type warmKey struct {
	bench string
	ff    uint64
	mem   memsys.Config
	bp    bpred.Config
}

// replayTotals are the per-layer counters of a traced replay.
type replayTotals struct {
	Committed, Cycles, FFInstrs uint64
	Allocs                      uint64
	Builds, Clones              int
}

// tracedReplay replays the point list serially through each layer's public
// functions, one span per call, reusing one warm state per (workload,
// fast-forward) as the harness does. It returns the results in point order.
func tracedReplay(tr *tracer, pts []enginePoint) ([]prisim.Result, replayTotals, error) {
	var tot replayTotals
	res := make([]prisim.Result, len(pts))
	warm := map[warmKey]*ooo.WarmState{}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	for i, pt := range pts {
		w, ok := workloads.ByName(pt.Opts.Benchmark)
		if !ok {
			return nil, tot, fmt.Errorf("unknown benchmark %q", pt.Opts.Benchmark)
		}
		cfg, err := machineConfig(pt.Opts)
		if err != nil {
			return nil, tot, err
		}
		root := tr.begin("point", -1, pt.Key)
		k := warmKey{bench: w.Name, ff: pt.Opts.FastForward, mem: cfg.Mem, bp: cfg.Bpred}
		ws, ok := warm[k]
		if !ok {
			var p *ooo.Pipeline
			tr.do("snapshot.build", root, pt.Key, func(id int) {
				var prog *asm.Program
				tr.do("workloads.build", id, pt.Key, func(int) { prog = w.Build(0) })
				tr.do("ooo.new", id, pt.Key, func(int) { p = ooo.New(cfg, prog) })
				tr.do("ff.run", id, pt.Key, func(int) { tot.FFInstrs += runChunked(p.FastForward, pt.Opts.FastForward) })
				tr.do("snapshot.capture", id, pt.Key, func(int) { ws = p.CaptureWarm() })
			})
			warm[k] = ws
			tot.Builds++
		}
		var p *ooo.Pipeline
		tr.do("snapshot.clone", root, pt.Key, func(int) { p = ooo.NewFromWarm(cfg, ws) })
		tot.Clones++
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		tr.do("ooo.run", root, pt.Key, func(int) { runChunked(p.Run, pt.Opts.Run) })
		metrics.Read(allocs)
		tot.Allocs += allocs[0].Value.Uint64() - before
		res[i] = resultOf(p, cfg, w)
		tot.Committed += res[i].Committed
		tot.Cycles += res[i].Cycles
		tr.end(root)
	}
	return res, tot, nil
}

// runEngineTrace is the traced run of sweep and sampled. It first runs the
// point list serially through a fresh Engine, then replays the same points
// through the layers with a span around every call, and checks the replay
// reproduces the Engine's results byte for byte.
func runEngineTrace(cfg config, rep *report, pts []enginePoint, expectTop string) {
	ctx := context.Background()
	pts = orderRows(pts, cfg.seed)

	eng := prisim.NewEngine(prisim.WithParallelism(1))
	want := make([]prisim.Result, len(pts))
	t0 := time.Now()
	for i, p := range pts {
		res, err := eng.Simulate(ctx, p.Opts)
		if err == nil {
			err = checkBudget(p.Opts, res)
		}
		if err != nil {
			rep.fail("engine %s", err)
		}
		want[i] = res
		rep.ops++
	}
	untraced := time.Since(t0)
	cs := eng.CacheStats()
	digest := combinedDigest(digests(keyed(pts, want)))
	gain, _ := priGainPct(pts, want)
	rep.notef("digest %s", digest)
	rep.notef("PRI-rc-ckpt int/4w mean speedup %v%% (paper %.1f%%)", gain, paperPRIGainPct)
	checkExpected(rep, cfg.workload, digest, gain)

	tr := &tracer{}
	t1 := time.Now()
	got, tot, err := tracedReplay(tr, pts)
	traced := time.Since(t1)
	if err != nil {
		rep.fail("replay: %v", err)
		return
	}
	for i := range pts {
		rep.ops++
		if ok, diff := sameResult(want[i], got[i]); !ok {
			rep.fail("replay of %s differs from the Engine: %s", pts[i].Key, diff)
		}
	}
	rep.notef("traced replay reproduced %d Engine results byte for byte", len(pts))
	writeSpans(cfg, rep, tr)

	lts := selfTimes(tr.spans)
	rep.selfTable(lts)
	rep.purpose(lts, expectTop)

	runS := selfOf(lts, "ooo.run").Seconds()
	ffS := selfOf(lts, "ff.run").Seconds()
	rep.set("ooo.run_s", runS, "s", tot.Clones)
	rep.set("ooo.committed", float64(tot.Committed), "count", tot.Clones)
	rep.set("ooo.cycles", float64(tot.Cycles), "count", tot.Clones)
	rep.set("ooo.ns_per_instr", runS*1e9/float64(tot.Committed), "ns", tot.Clones)
	rep.set("ooo.ns_per_cycle", runS*1e9/float64(tot.Cycles), "ns", tot.Clones)
	rep.set("ooo.allocs_per_kinstr", float64(tot.Allocs)*1000/float64(tot.Committed), "count", tot.Clones)
	rep.set("ff.run_s", ffS, "s", tot.Builds)
	rep.set("ff.instrs", float64(tot.FFInstrs), "count", tot.Builds)
	rep.set("ff.ns_per_instr", ffS*1e9/float64(tot.FFInstrs), "ns", tot.Builds)
	rep.set("snapshot.capture_s", selfOf(lts, "snapshot.capture").Seconds(), "s", tot.Builds)
	rep.set("snapshot.clone_s", selfOf(lts, "snapshot.clone").Seconds(), "s", tot.Clones)
	// The snapshot counts are the Engine's, as prisimd exports them on the
	// service workload: hits are the points that reused a cached warm state.
	rep.set("snapshot.builds", float64(cs.SnapshotBuilds), "count", 1)
	rep.set("snapshot.hits", float64(cs.SnapshotHits), "count", 1)
	rep.set("snapshot.bytes", float64(cs.SnapshotBytes), "bytes", cs.SnapshotBuilds)
	rep.set("workloads.build_s", selfOf(lts, "workloads.build").Seconds(), "s", tot.Builds)
	rep.set("workloads.builds", float64(tot.Builds), "count", 1)
	rep.setHarness(cs.Executed, cs.Hits, cs.Coalesced, cs.SnapshotBuilds, cs.SnapshotHits)
	rep.set("trace.traced_total_s", traced.Seconds(), "s", len(tr.spans))
	rep.set("trace.untraced_total_s", untraced.Seconds(), "s", len(pts))
}
