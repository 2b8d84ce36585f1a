package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"prisim"
	"prisim/internal/asm"
	"prisim/internal/asm/analysis"
	"prisim/internal/fabric"
	"prisim/internal/workloads"
	"prisim/prisimclient"
)

// Service workload budget: small, so one cold simulate job takes a few
// milliseconds and queueing, assembly, lint and the store stay visible.
const (
	serviceFF  = 2_000
	serviceRun = 8_000
)

// Job kinds of the service workload and their weights in the seeded mix.
// No record of real prisimd traffic exists, so the mix models no users; it
// is a measurement design. Each of the four latency kinds reported
// (simulate, warm, program, matrix) gets the same expected share of the
// jobs, which, whatever each kind costs, gives the largest smallest sample
// count a run of fixed length can have. The program kind's share is split
// evenly between its two paths: a new program ("program": assembled,
// linted and simulated) and an earlier program with its layout changed
// ("reformat": same image hash, so assembly and lint run and the result is
// a store hit). Reformat jobs are reported under the program kind.
var jobMix = []struct {
	Kind   string
	Weight int
}{
	{"simulate", 2},
	{"warm", 2},
	{"program", 1},
	{"reformat", 1},
	{"matrix", 2},
}

// memJobs is the job count at which the daemon's peak RSS is read. prisimd
// keeps every job it has served, so its RSS grows with the jobs completed;
// read at a fixed count it measures memory, not speed.
const memJobs = 500

// minKindSamples is the sample count per latency kind a run must reach, so
// that its p90 has ten samples beyond it; fewer fails the run.
const minKindSamples = 100

// daemonSetupRuns is how many daemon starts the service set-up time is the
// median of.
const daemonSetupRuns = 11

// Warm-up (untimed) size: the cold jobs whose results warm and reformat
// jobs repeat later.
const (
	warmupSimulate = 40
	warmupPrograms = 24
)

// latencyKind maps a job kind to the kind its latency is reported under.
func latencyKind(kind string) string {
	if kind == "reformat" {
		return "program"
	}
	return kind
}

// plannedJob is one job of the seeded plan.
type plannedJob struct {
	Kind   string
	Req    prisimclient.JobRequest // simulate, warm, program, reformat
	Matrix prisimclient.Matrix     // matrix
	Target int                     // warm/reformat: index into the warm-up originals
}

// original is the finished result of a warm-up job.
type original struct {
	Result prisim.Result
	Output []byte
}

// servicePlan is the seeded input of one service run.
type servicePlan struct {
	seed     int64
	cold     []prisimclient.JobRequest // unique simulate points, warm-up first
	warmup   []prisimclient.JobRequest // warm-up simulate then program jobs
	priSpec  prisimclient.Matrix
	progNext int
	coldNext int
	rng      *rand.Rand
	matrices map[string]bool
}

// newServicePlan shuffles the cold simulate pool: every workload, policy,
// width and physical register count from 40 to 96.
func newServicePlan(seed int64) *servicePlan {
	sp := &servicePlan{seed: seed, rng: rand.New(rand.NewSource(seed)), matrices: map[string]bool{}}
	for _, w := range workloads.All() {
		for _, pol := range prisim.Policies() {
			for _, width := range []int{4, 8} {
				for prs := 40; prs <= 96; prs++ {
					sp.cold = append(sp.cold, prisimclient.JobRequest{Kind: prisimclient.KindSimulate,
						Benchmark: w.Name, Policy: string(pol), Width: width, PhysRegs: prs})
				}
			}
		}
	}
	sp.rng.Shuffle(len(sp.cold), func(i, j int) { sp.cold[i], sp.cold[j] = sp.cold[j], sp.cold[i] })
	for i := 0; i < warmupSimulate; i++ {
		sp.warmup = append(sp.warmup, sp.nextCold())
	}
	for i := 0; i < warmupPrograms; i++ {
		sp.warmup = append(sp.warmup, sp.nextProgram())
	}
	var ints []string
	for _, w := range workloads.Integer() {
		ints = append(ints, w.Name)
	}
	sp.priSpec = prisimclient.Matrix{Benchmarks: ints,
		Policies: []string{string(prisim.PolicyBase), string(prisim.PolicyPRI)}, Widths: []int{4},
		FastForward: serviceFF, Run: serviceRun}
	return sp
}

func (sp *servicePlan) nextCold() prisimclient.JobRequest {
	r := sp.cold[sp.coldNext]
	sp.coldNext++
	return r
}

func (sp *servicePlan) nextProgram() prisimclient.JobRequest {
	src := genProgram(sp.seed, sp.progNext)
	sp.progNext++
	pols := prisim.Policies()
	return prisimclient.JobRequest{Kind: prisimclient.KindProgram, Source: []byte(src),
		Policy: string(pols[sp.rng.Intn(len(pols))]), Width: 4 + 4*sp.rng.Intn(2)}
}

// next draws the next job of the mix.
func (sp *servicePlan) next() plannedJob {
	total := 0
	for _, m := range jobMix {
		total += m.Weight
	}
	x := sp.rng.Intn(total)
	kind := ""
	for _, m := range jobMix {
		if x < m.Weight {
			kind = m.Kind
			break
		}
		x -= m.Weight
	}
	switch kind {
	case "simulate":
		return plannedJob{Kind: kind, Req: sp.nextCold()}
	case "warm":
		t := sp.rng.Intn(len(sp.warmup))
		return plannedJob{Kind: kind, Req: sp.warmup[t], Target: t}
	case "program":
		return plannedJob{Kind: kind, Req: sp.nextProgram()}
	case "reformat":
		t := warmupSimulate + sp.rng.Intn(warmupPrograms)
		req := sp.warmup[t]
		req.Source = []byte(reformat(string(req.Source), sp.rng))
		return plannedJob{Kind: kind, Req: req, Target: t}
	}
	for {
		all := workloads.All()
		a, b := sp.rng.Intn(len(all)), sp.rng.Intn(len(all)-1)
		if b >= a {
			b++
		}
		m := prisimclient.Matrix{Benchmarks: []string{all[a].Name, all[b].Name},
			Policies: []string{string(prisim.PolicyBase), string(prisim.PolicyPRI)},
			Widths:   []int{4 + 4*sp.rng.Intn(2)}, PhysRegs: []int{40 + sp.rng.Intn(57)},
			FastForward: serviceFF, Run: serviceRun}
		k := fmt.Sprint(min(all[a].Name, all[b].Name), max(all[a].Name, all[b].Name), m.Widths, m.PhysRegs)
		if !sp.matrices[k] {
			sp.matrices[k] = true
			return plannedJob{Kind: "matrix", Matrix: m}
		}
	}
}

// daemon is one prisimd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	client *prisimclient.Client
	ready  time.Duration // exec to the first 200 from /readyz
	logs   chan string
}

var addrRe = regexp.MustCompile(`addr=(\S+)`)

// startDaemon execs prisimd in coordinator mode on store and waits until
// /readyz answers 200.
func startDaemon(cfg config, store string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-coordinator", "-store", store,
		"-local-slots", strconv.Itoa(cfg.nproc), "-workers", strconv.Itoa(cfg.nproc),
		"-ff", strconv.Itoa(serviceFF), "-run", strconv.Itoa(serviceRun), "-quiet", "-node-id", "bench"}
	d := &daemon{cmd: exec.Command(cfg.prisimd, args...), logs: make(chan string, 64)}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if m := addrRe.FindStringSubmatch(line); m != nil && !found {
				found = true
				addrCh <- m[1]
			}
			select {
			case d.logs <- line:
			default:
			}
		}
		close(addrCh)
	}()
	var ok bool
	select {
	case d.addr, ok = <-addrCh:
	case <-time.After(20 * time.Second):
	}
	if !ok {
		d.kill()
		return nil, errors.New("prisimd did not report its address")
	}
	// One connection per client: all load comes from nproc closed-loop
	// clients, each with one request in flight.
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: cfg.nproc, MaxIdleConnsPerHost: cfg.nproc}}
	d.client = prisimclient.NewClient("http://"+d.addr, prisimclient.WithHTTPClient(hc))
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get("http://" + d.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(start)
				return d, nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	d.kill()
	return nil, errors.New("prisimd never became ready")
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("prisimd did not drain within 30s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// peakRSSMB is the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// counters scrapes the daemon's Prometheus counters.
func (d *daemon) counters(ctx context.Context) (map[string]float64, error) {
	text, err := d.client.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if f := strings.Fields(line); len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, nil
}

// jobOutcome is one finished job as the client saw it.
type jobOutcome struct {
	Plan      plannedJob
	Kind      string // latency kind
	Latency   time.Duration
	SubmitDur time.Duration
	ResultDur time.Duration
	Job       *prisimclient.Job // simulate/program kinds
	Result    *prisimclient.JobResult
	Matrix    *prisimclient.MatrixStatus
	MatrixRes *prisimclient.MatrixResult
	Points    int
	Rejected  int // 429 answers before the job was accepted
	Err       error
}

// runJob submits one planned job, waits for it and fetches its result, with
// spans under tr when tracing.
func runJob(ctx context.Context, c *prisimclient.Client, pj plannedJob, tr *tracer) jobOutcome {
	o := jobOutcome{Plan: pj, Kind: latencyKind(pj.Kind)}
	root := -1
	span := func(name string, fn func()) {
		if tr == nil {
			fn()
			return
		}
		tr.do(name, root, "", func(int) { fn() })
	}
	setReqID := func(string) {}
	if tr != nil {
		root = tr.begin("job."+o.Kind, -1, "")
		defer tr.end(root)
		setReqID = func(id string) {
			tr.mu.Lock()
			tr.spans[root].ReqID = id
			tr.mu.Unlock()
		}
	}
	start := time.Now()
	if pj.Kind == "matrix" {
		var st *prisimclient.MatrixStatus
		span("service.submit", func() { st, o.Err = c.SubmitMatrix(ctx, pj.Matrix) })
		o.SubmitDur = time.Since(start)
		if o.Err != nil {
			return o
		}
		setReqID(st.ID)
		span("service.wait", func() {
			for !st.State.Terminal() && o.Err == nil {
				time.Sleep(time.Millisecond)
				st, o.Err = c.MatrixStatus(ctx, st.ID)
			}
		})
		if o.Err != nil {
			return o
		}
		o.Matrix = st
		rs := time.Now()
		span("service.result", func() { o.MatrixRes, o.Err = c.MatrixResult(ctx, st.ID) })
		o.ResultDur = time.Since(rs)
		o.Latency = time.Since(start)
		if o.Err == nil {
			o.Points = len(o.MatrixRes.Points)
		}
		return o
	}
	var j *prisimclient.Job
	for {
		span("service.submit", func() { j, o.Err = c.Submit(ctx, pj.Req) })
		if !errors.Is(o.Err, prisimclient.ErrQueueFull) {
			break
		}
		o.Rejected++
		time.Sleep(time.Millisecond)
	}
	o.SubmitDur = time.Since(start)
	if o.Err != nil {
		return o
	}
	setReqID(j.ID)
	span("service.wait", func() { o.Job, o.Err = c.Wait(ctx, j.ID, time.Millisecond) })
	if o.Err != nil {
		return o
	}
	rs := time.Now()
	span("service.result", func() { o.Result, o.Err = c.Result(ctx, j.ID) })
	o.ResultDur = time.Since(rs)
	o.Latency = time.Since(start)
	o.Points = 1
	return o
}

// runLoad drives the daemon closed-loop with nproc clients, each doing
// submit, wait, fetch result, until the deadline passes or the plan (when
// limit > 0) is used up. The plan is drawn in order from one seeded source,
// so the inputs depend only on the seed. When the memJobs-th job completes
// it records the daemon's peak resident set so far in MiB (0 if the run
// completes fewer jobs or the read fails).
func runLoad(ctx context.Context, cfg config, d *daemon, sp *servicePlan, deadline time.Time, limit int, tr *tracer) ([]jobOutcome, time.Duration, float64) {
	var mu sync.Mutex
	var outs []jobOutcome
	var rss float64
	var taken atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if limit > 0 && int(taken.Add(1)) > limit {
					return
				}
				if limit == 0 && time.Now().After(deadline) {
					return
				}
				mu.Lock()
				pj := sp.next()
				mu.Unlock()
				o := runJob(ctx, d.client, pj, tr)
				mu.Lock()
				outs = append(outs, o)
				if len(outs) == memJobs {
					rss, _ = d.peakRSSMB()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start), rss
}

// warmUp runs the untimed phase on a fresh store: the fixed PRI matrix and
// the warm-up jobs whose results later jobs repeat. It checks the matrix
// against the recorded digest and PRI gain, notes the gain, and returns the
// originals, leaving the daemon stopped.
func warmUp(ctx context.Context, cfg config, rep *report, sp *servicePlan, store string) ([]original, error) {
	d, err := startDaemon(cfg, store)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	pri := runJob(ctx, d.client, plannedJob{Kind: "matrix", Matrix: sp.priSpec}, nil)
	if pri.Err != nil {
		return nil, fmt.Errorf("PRI matrix: %w", pri.Err)
	}
	var pts []enginePoint
	var res []prisim.Result
	for _, p := range pri.MatrixRes.Points {
		o := p.Request.Options()
		if o.Width == 0 {
			o.Width = 4
		}
		o.FastForward, o.Run = serviceFF, serviceRun
		pts = append(pts, enginePoint{Key: pointKey(o), Opts: o})
		res = append(res, p.Result)
	}
	gain, pairs := priGainPct(pts, res)
	digest := combinedDigest(digests(keyed(pts, res)))
	rep.notef("PRI-rc-ckpt int/4w mean speedup %v%% over %d pairs at ff %d run %d (paper %.1f%%)",
		gain, pairs, serviceFF, serviceRun, paperPRIGainPct)
	rep.notef("digest %s", digest)
	checkExpected(rep, cfg.workload, digest, gain)
	rep.set("pri_gain_gap_pp", priGapPP(gain), "pp", pairs)

	origs := make([]original, len(sp.warmup))
	errs := make(chan error, len(sp.warmup))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < cfg.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sp.warmup) {
					return
				}
				o := runJob(ctx, d.client, plannedJob{Kind: "warmup", Req: sp.warmup[i]}, nil)
				if o.Err == nil && o.Job.State != prisimclient.StateDone {
					o.Err = fmt.Errorf("job %s %s: %s", o.Job.ID, o.Job.State, o.Job.Error)
				}
				if o.Err != nil {
					errs <- o.Err
					continue
				}
				origs[i] = original{Result: *o.Result.Result, Output: o.Result.Output}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rep.ops += 1 + len(sp.warmup)
	return origs, nil
}

// checkOutcomes verifies every job of a load phase and returns the
// latencies per kind (a failed job counts as missing every limit).
func checkOutcomes(rep *report, outs []jobOutcome, origs []original) map[string]samples {
	lat := map[string]samples{}
	expected := map[string][]byte{}
	for _, o := range outs {
		rep.ops++
		err := checkOutcome(o, origs, expected)
		if err != nil {
			rep.fail("%s job: %v", o.Plan.Kind, err)
			lat[o.Kind] = append(lat[o.Kind], math.Inf(1))
			continue
		}
		lat[o.Kind] = append(lat[o.Kind], ms(o.Latency))
	}
	return lat
}

func checkOutcome(o jobOutcome, origs []original, expected map[string][]byte) error {
	if o.Err != nil {
		return o.Err
	}
	budget := prisim.Options{Width: o.Plan.Req.Width, Run: serviceRun}
	if o.Plan.Kind == "matrix" {
		if o.Matrix.State != prisimclient.StateDone {
			return fmt.Errorf("matrix %s %s: %s", o.Matrix.ID, o.Matrix.State, o.Matrix.Error)
		}
		if want := 2 * 2; len(o.MatrixRes.Points) != want {
			return fmt.Errorf("matrix %s has %d points, want %d", o.Matrix.ID, len(o.MatrixRes.Points), want)
		}
		for _, p := range o.MatrixRes.Points {
			b := budget
			b.Width = p.Request.Width
			if err := checkBudget(b, p.Result); err != nil {
				return err
			}
		}
		return nil
	}
	if o.Job.State != prisimclient.StateDone {
		return fmt.Errorf("job %s %s: %s", o.Job.ID, o.Job.State, o.Job.Error)
	}
	res := *o.Result.Result
	switch o.Plan.Kind {
	case "simulate":
		return checkBudget(budget, res)
	case "warm", "reformat":
		orig := origs[o.Plan.Target]
		if ok, diff := sameResult(orig.Result, res); !ok {
			return fmt.Errorf("%s of warm-up job %d differs from the original: %s", o.Plan.Kind, o.Plan.Target, diff)
		}
		if string(orig.Output) != string(o.Result.Output) {
			return fmt.Errorf("%s of warm-up job %d printed %q, original %q", o.Plan.Kind, o.Plan.Target, o.Result.Output, orig.Output)
		}
		if o.Plan.Kind == "reformat" {
			return checkProgramOutput(string(o.Plan.Req.Source), o.Result.Output, expected)
		}
		return nil
	case "program":
		return checkProgramOutput(string(o.Plan.Req.Source), o.Result.Output, expected)
	}
	return fmt.Errorf("unknown job kind %q", o.Plan.Kind)
}

// checkProgramOutput compares a program job's console output with a
// functional emulator run of the same source.
func checkProgramOutput(src string, got []byte, expected map[string][]byte) error {
	want, ok := expected[src]
	if !ok {
		var err error
		if want, err = functionalOutput(src); err != nil {
			return err
		}
		expected[src] = want
	}
	if string(want) != string(got) {
		return fmt.Errorf("program printed %q, functional run prints %q", got, want)
	}
	return nil
}

// serviceDir makes a fresh scratch directory for one service run.
func serviceDir(cfg config) (string, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.workdir, "service-")
}

func copyFile(dst, src string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// runService is the metric run of the service workload.
func runService(cfg config, rep *report) {
	ctx := context.Background()
	dir, err := serviceDir(cfg)
	if err != nil {
		rep.fail("%v", err)
		return
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "results.log")
	sp := newServicePlan(cfg.seed)
	origs, err := warmUp(ctx, cfg, rep, sp, store)
	if err != nil {
		rep.fail("%v", err)
		return
	}

	// The daemon is started daemonSetupRuns times on the warm-up store for
	// the median set-up time; the last start serves the measured load.
	var setup samples
	var d *daemon
	for i := 0; i < daemonSetupRuns; i++ {
		if d != nil {
			d.stop()
		}
		if d, err = startDaemon(cfg, store); err != nil {
			rep.fail("%v", err)
			return
		}
		setup = append(setup, d.ready.Seconds())
	}
	defer d.stop()

	outs, wall, rss := runLoad(ctx, cfg, d, sp, time.Now().Add(time.Duration(cfg.seconds)*time.Second), 0, nil)
	if rss == 0 {
		rep.notef("warning: %d jobs completed, fewer than %d; peak RSS read at the end", len(outs), memJobs)
		var err error
		if rss, err = d.peakRSSMB(); err != nil {
			rep.fail("daemon peak RSS: %v", err)
		}
	}
	lat := checkOutcomes(rep, outs, origs)

	points := setServiceLayer(rep, outs)
	rep.notef("jobs %d in %.3fs, points %d", len(outs), wall.Seconds(), points)
	rep.notef("job mix weights %s", mixString())
	secs := wall.Seconds()
	rep.set("points_per_s", float64(points)/secs, "1/s", points)
	rep.set("jobs_per_s", float64(len(outs))/secs, "1/s", len(outs))
	for _, k := range latencyKinds {
		rep.setPercentiles(k, lat[k])
		rep.notef("%s latency ms: %s", k, quantileString(lat[k]))
	}
	checkSampleCounts(rep, lat)
	rep.set("setup_s", setup.median(), "s", len(setup))
	rep.set("mem_peak_mb", rss, "MiB", 1)
}

// latencyKinds are the job kinds whose latencies are reported.
var latencyKinds = []string{"simulate", "program", "warm", "matrix"}

// checkSampleCounts is one op, failed when a latency kind has fewer than
// minKindSamples samples.
func checkSampleCounts(rep *report, lat map[string]samples) {
	rep.ops++
	var short []string
	for _, k := range latencyKinds {
		if len(lat[k]) < minKindSamples {
			short = append(short, fmt.Sprintf("%s %d", k, len(lat[k])))
		}
	}
	if len(short) > 0 {
		rep.fail("fewer than %d samples: %s", minKindSamples, strings.Join(short, ", "))
	}
}

// setServiceLayer reports the service layer's share of the jobs: the p50 of
// the client's submit and result calls and of the queue wait and execution
// the job timestamps record, and the 429 refusals. It returns the number of
// points the jobs delivered.
func setServiceLayer(rep *report, outs []jobOutcome) int {
	points, rejected := 0, 0
	var submit, queue, exec, result samples
	for _, o := range outs {
		points += o.Points
		rejected += o.Rejected
		submit = append(submit, ms(o.SubmitDur))
		result = append(result, ms(o.ResultDur))
		if o.Job != nil {
			queue = append(queue, ms(o.Job.Started.Sub(o.Job.Created)))
			exec = append(exec, ms(o.Job.Finished.Sub(o.Job.Started)))
		}
	}
	for name, s := range map[string]samples{"submit": submit, "queue_wait": queue, "exec": exec, "result": result} {
		p50, n := s.percentile(50)
		rep.set("service."+name+"_ms", p50, "ms", n)
	}
	rep.set("service.rejected_429", float64(rejected), "count", len(outs))
	return points
}

// quantileString lists a latency distribution's deciles and extremes.
func quantileString(s samples) string {
	var parts []string
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
		v, n := s.percentile(p)
		if n == 0 {
			return "no samples"
		}
		parts = append(parts, fmt.Sprintf("p%g=%.3f", p, v))
	}
	return strings.Join(parts, " ") + fmt.Sprintf(" (n=%d)", len(s))
}

func mixString() string {
	var parts []string
	for _, m := range jobMix {
		parts = append(parts, fmt.Sprintf("%s=%d", m.Kind, m.Weight))
	}
	return strings.Join(parts, " ")
}

// traceJobs is how many jobs each phase of the traced service run submits:
// enough for minKindSamples of every latency kind with a wide margin.
const traceJobs = 800

// runServiceTrace is the traced run of the service workload: after the
// warm-up, the same traceJobs jobs run once untraced and once traced, each
// on a daemon started from a copy of the warm-up store. The assembler,
// analyzer and store are then timed in process on the same sources and log.
func runServiceTrace(cfg config, rep *report) {
	ctx := context.Background()
	dir, err := serviceDir(cfg)
	if err != nil {
		rep.fail("%v", err)
		return
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "warmup.log")
	sp := newServicePlan(cfg.seed)
	origs, err := warmUp(ctx, cfg, rep, sp, base)
	if err != nil {
		rep.fail("%v", err)
		return
	}

	// phase runs the plan's first traceJobs jobs on a daemon over a copy of
	// the warm-up store; both phases draw the same jobs.
	phase := func(name string, tr *tracer) ([]jobOutcome, time.Duration, map[string]float64, string, error) {
		store := filepath.Join(dir, name+".log")
		if err := copyFile(store, base); err != nil {
			return nil, 0, nil, "", err
		}
		d, err := startDaemon(cfg, store)
		if err != nil {
			return nil, 0, nil, "", err
		}
		plan := *sp
		plan.rng = rand.New(rand.NewSource(cfg.seed + 1))
		plan.matrices = map[string]bool{}
		outs, wall, _ := runLoad(ctx, cfg, d, &plan, time.Time{}, traceJobs, tr)
		ctrs, err := d.counters(ctx)
		if serr := d.stop(); err == nil {
			err = serr
		}
		return outs, wall, ctrs, store, err
	}
	outsU, wallU, _, _, err := phase("untraced", nil)
	if err != nil {
		rep.fail("untraced phase: %v", err)
		return
	}
	checkOutcomes(rep, outsU, origs)
	tr := &tracer{}
	outs, wall, ctrs, store, err := phase("traced", tr)
	if err != nil {
		rep.fail("traced phase: %v", err)
		return
	}
	lat := checkOutcomes(rep, outs, origs)
	checkSampleCounts(rep, lat)

	// In process: the assembler and analyzer on every program source the
	// traced phase submitted, as the service runs them at submit.
	var srcBytes, insts, findings, programs int
	for _, o := range outs {
		if o.Kind != "program" {
			continue
		}
		programs++
		src := string(o.Plan.Req.Source)
		srcBytes += len(src)
		var prog *asm.Program
		tr.do("asm.assemble", -1, "", func(int) { prog, err = asm.AssembleFile("program.s", src) })
		if err != nil {
			rep.fail("assemble: %v", err)
			continue
		}
		insts += len(prog.Code)
		tr.do("analysis.analyze", -1, "", func(int) {
			r := analysis.Analyze(prog, analysis.Options{})
			findings += len(r.Diagnostics(prog, "program.s", src))
		})
	}

	// In process: the store on the traced daemon's own log.
	var st *fabric.Store
	tr.do("fabric.replay", -1, "", func(int) { st, err = fabric.OpenStore(store) })
	if err != nil {
		rep.fail("open store: %v", err)
		return
	}
	var entries []fabric.Entry
	for _, o := range outs {
		if o.Job == nil || o.Job.CacheKey == "" {
			continue
		}
		var e fabric.Entry
		var ok bool
		tr.do("fabric.get", -1, o.Job.ID, func(int) { e, ok = st.Get(o.Job.CacheKey) })
		if !ok {
			rep.fail("store has no entry for job %s", o.Job.ID)
			continue
		}
		entries = append(entries, e)
	}
	st.Close()
	fresh, err := fabric.OpenStore(filepath.Join(dir, "put.log"))
	if err != nil {
		rep.fail("open store: %v", err)
		return
	}
	for _, e := range entries {
		tr.do("fabric.put", -1, e.Key, func(int) { err = fresh.Put(e) })
		if err != nil {
			rep.fail("store put: %v", err)
		}
	}
	fresh.Close()
	writeSpans(cfg, rep, tr)

	lts := selfTimes(tr.spans)
	rep.selfTable(lts)
	setServiceLayer(rep, outs)
	mExec, mHits := 0, 0
	for _, o := range outs {
		if o.Matrix != nil {
			mExec += o.Matrix.Executed
			mHits += o.Matrix.StoreHits
		}
	}
	asmS := selfOf(lts, "asm.assemble").Seconds()
	anaS := selfOf(lts, "analysis.analyze").Seconds()
	progP50, _ := lat["program"].percentile(50)
	share := 0.0
	if programs > 0 && progP50 > 0 {
		share = 100 * (asmS + anaS) * 1000 / float64(programs) / progP50
	}
	verdict := "confirmed"
	if share < 5 {
		verdict = "MISS"
	}
	rep.notef("purpose check: assembly plus lint is %.1f%% of the program p50 latency (want at least 5%%): %s", share, verdict)

	for _, k := range []string{"program", "warm"} {
		p50, n := lat[k].percentile(50)
		p90, _ := lat[k].percentile(90)
		rep.set("service."+k+"_p50_ms", p50, "ms", n)
		rep.set("service."+k+"_p90_ms", p90, "ms", n)
	}
	rep.set("asm.assemble_s", asmS, "s", programs)
	rep.set("asm.source_bytes", float64(srcBytes), "bytes", programs)
	rep.set("asm.ns_per_byte", nsPer(asmS, srcBytes), "ns", programs)
	rep.set("analysis.analyze_s", anaS, "s", programs)
	rep.set("analysis.insts", float64(insts), "count", programs)
	rep.set("analysis.findings", float64(findings), "count", programs)
	rep.set("fabric.replay_s", selfOf(lts, "fabric.replay").Seconds(), "s", 1)
	rep.set("fabric.get_us", 1e6*selfOf(lts, "fabric.get").Seconds()/math.Max(1, float64(len(entries))), "us", len(entries))
	rep.set("fabric.put_us", 1e6*selfOf(lts, "fabric.put").Seconds()/math.Max(1, float64(len(entries))), "us", len(entries))
	rep.set("fabric.store_hits", ctrs["prisimd_store_hits_total"], "count", 1)
	rep.set("fabric.matrix_executed", float64(mExec), "count", 1)
	rep.set("fabric.matrix_store_hits", float64(mHits), "count", 1)
	rep.setHarness(int(ctrs["prisimd_cache_runs_executed_total"]), int(ctrs["prisimd_cache_hits_total"]),
		int(ctrs["prisimd_cache_coalesced_total"]), int(ctrs["prisimd_snapshot_builds_total"]), int(ctrs["prisimd_snapshot_hits_total"]))
	rep.set("snapshot.builds", ctrs["prisimd_snapshot_builds_total"], "count", 1)
	rep.set("snapshot.hits", ctrs["prisimd_snapshot_hits_total"], "count", 1)
	rep.set("snapshot.bytes", ctrs["prisimd_snapshot_resident_bytes"], "bytes", 1)
	rep.set("trace.traced_total_s", wall.Seconds(), "s", len(tr.spans))
	rep.set("trace.untraced_total_s", wallU.Seconds(), "s", len(outsU))
}

func nsPer(secs float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return secs * 1e9 / float64(n)
}
