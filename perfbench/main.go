// Command perfbench is prisim's end-to-end benchmark. It runs one of three
// workloads and prints every metric with its unit and sample count, checks
// that every output is correct, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set of BENCHMARK.json; with
// --trace 1 a separate traced run replays the same inputs through each
// layer's public functions and reports the per-layer set.
//
// Run it from the repository root through perfbench/run.sh, which builds it
// and prisimd first:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"prisim"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	nproc    int
	prisimd  string // path of the prisimd binary (service workload)
	workdir  string // scratch directory inside the checkout
}

// engineWorkloads are the workloads driven through an in-process Engine:
// their point sets and the span the traced run expects to have the largest
// self time.
var engineWorkloads = map[string]struct {
	points func() []enginePoint
	top    string
}{
	"sweep":   {sweepPoints, "ooo.run"},
	"sampled": {sampledPoints, "ff.run"},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: sweep, sampled or service")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "how long the metric run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.prisimd, "prisimd", ".bench_build/bin/prisimd", "prisimd binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.nproc = runtime.NumCPU()
	ew, isEngine := engineWorkloads[cfg.workload]
	if !(isEngine || cfg.workload == "service") || flag.NArg() != 0 || (trace != 0 && trace != 1) || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep|sampled|service --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	host, _ := os.Hostname()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	fmt.Printf("host=%s nproc=%d GOMAXPROCS=%d go=%s prisim=%s commit=%s date=%s\n",
		host, cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), prisim.Version, commit(), time.Now().UTC().Format(time.RFC3339))

	rep := &report{}
	switch {
	case isEngine && cfg.trace:
		runEngineTrace(cfg, rep, ew.points(), ew.top)
	case isEngine:
		runEngineWorkload(cfg, rep, ew.points())
	case cfg.trace:
		runServiceTrace(cfg, rep)
	default:
		runService(cfg, rep)
	}

	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	os.Stdout.Write(rep.render(cfg.workload, want, cfg.trace))
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// benchSpec is the part of BENCHMARK.json the benchmark reports against.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// value is one reported metric.
type value struct {
	V    float64
	Unit string
	N    int // samples the value was computed from
}

// report collects one run's metrics, notes and failed checks.
type report struct {
	metrics map[string]value
	order   []string
	notes   []string
	ops     int
	failed  int
}

func (r *report) set(name string, v float64, unit string, n int) {
	if r.metrics == nil {
		r.metrics = map[string]value{}
	}
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = value{V: v, Unit: unit, N: n}
}

// setPercentiles reports the p50 and p90 of one job kind's latencies.
func (r *report) setPercentiles(kind string, s samples) {
	p50, n := s.percentile(50)
	p90, _ := s.percentile(90)
	r.set(kind+"_p50_ms", p50, "ms", n)
	r.set(kind+"_p90_ms", p90, "ms", n)
}

// setHarness reports the Engine cache counters.
func (r *report) setHarness(executed, hits, coalesced, snapBuilds, snapHits int) {
	r.set("harness.executed", float64(executed), "count", 1)
	r.set("harness.hits", float64(hits), "count", 1)
	r.set("harness.coalesced", float64(coalesced), "count", 1)
	ratio := 0.0
	if snapBuilds+snapHits > 0 {
		ratio = float64(snapHits) / float64(snapBuilds+snapHits)
	}
	r.set("harness.snapshot_hit_ratio", ratio, "ratio", snapBuilds+snapHits)
}

// fail records a failed correctness check; each counts as a failed op.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// selfTable notes the traced run's self time per span name.
func (r *report) selfTable(lts []layerTime) {
	var total time.Duration
	for _, lt := range lts {
		total += lt.Self
	}
	r.notef("self time by span (total %.3fs):", total.Seconds())
	for _, lt := range lts {
		r.notef("  %-18s %8d spans  self %9.4fs  %5.1f%%  total %9.4fs",
			lt.Name, lt.Count, lt.Self.Seconds(), 100*lt.Self.Seconds()/total.Seconds(), lt.Total.Seconds())
	}
}

// purpose notes whether the layer the workload exists to exercise has the
// largest self time. A miss is reported, not treated as a failure.
func (r *report) purpose(lts []layerTime, expectTop string) {
	top := ""
	if len(lts) > 0 {
		top = lts[0].Name
	}
	verdict := "confirmed"
	if top != expectTop {
		verdict = "MISS"
	}
	r.notef("purpose check: largest self time %s, expected %s: %s", top, expectTop, verdict)
}

// render prints the human-readable table (every metric measured, with unit
// and sample count) and the final JSON line holding the metrics in want.
// A per-layer metric of a layer the workload does not exercise (notRun) is
// reported as 0; a missing end-to-end metric is a failure.
func (r *report) render(workload string, want []specMetric, notRun bool) []byte {
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jv{}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok && notRun {
			r.notes = append(r.notes, "not exercised on this workload: "+m.Name)
			v = value{Unit: m.Unit}
		} else if !ok {
			r.fail("metric %s was not measured", m.Name)
			continue
		}
		if v.Unit != m.Unit {
			r.fail("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		out[m.Name] = jv{Value: v.V, Unit: m.Unit}
	}
	var sb strings.Builder
	for _, n := range r.notes {
		fmt.Fprintf(&sb, "%s\n", n)
	}
	fmt.Fprintf(&sb, "%-28s %16s %-6s %s\n", "metric ("+workload+")", "value", "unit", "samples")
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	for _, n := range names {
		v := r.metrics[n]
		fmt.Fprintf(&sb, "%-28s %16.6f %-6s n=%d\n", n, v.V, v.Unit, v.N)
	}
	fmt.Fprintf(&sb, "ops %d ops_failed %d\n", r.ops, r.failed)
	attempted := r.ops
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{r.failed == 0, attempted, r.failed, out})
	sb.Write(line)
	sb.WriteByte('\n')
	return []byte(sb.String())
}
