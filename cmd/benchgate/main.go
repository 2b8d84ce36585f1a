// Command benchgate is the CI benchmark-regression gate. It reads `go test
// -bench` output (stdin or -in), extracts a named per-op metric of one
// benchmark, and fails if the best observed value falls below -frac of the
// floor recorded under a baseline JSON's acceptance object. The defaults
// gate the kernel's steady-state throughput:
//
//	go test ./internal/ooo -run '^$' -bench BenchmarkKernelSteadyState \
//	    -benchtime 2s -count 3 | go run ./cmd/benchgate -frac 0.8
//
// and the sweep-throughput gate reuses the same binary against the sweep
// record:
//
//	go test . -run '^$' -bench BenchmarkSweepFig8Mix \
//	    -benchtime 1x -count 3 | go run ./cmd/benchgate \
//	    -baseline BENCH_harness.json -bench BenchmarkSweepFig8Mix \
//	    -metric points/s -floorkey sweep_points_per_sec_floor -frac 0.7
//
// Taking the best of -count runs and gating at a fraction of the recorded
// floor keeps the gate meaningful on noisy shared CI machines: it catches
// order-of-magnitude regressions (an allocation sneaking back into the hot
// loop, the uop cache silently disabled, the snapshot cache no longer
// sharing fast-forwards) without flaking on scheduler jitter. Floors are
// updated only by regenerating the baseline record from a measured run.
//
// Exit codes: 0 pass, 1 regression or malformed input, 2 usage error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	baseline := flag.String("baseline", "BENCH_kernel.json", "benchmark record holding the floor")
	in := flag.String("in", "-", "benchmark output to parse (- for stdin)")
	bench := flag.String("bench", "BenchmarkKernelSteadyState", "benchmark name to gate on")
	metric := flag.String("metric", "instr/s", "per-op metric unit to extract from benchmark lines")
	floorKey := flag.String("floorkey", "steady_state_instr_per_sec_floor", "acceptance field holding the floor in the baseline record")
	frac := flag.Float64("frac", 0.8, "minimum fraction of the recorded floor that must be sustained")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchgate [-baseline file] [-in file] [-bench name] [-metric unit] [-floorkey key] [-frac f] < bench-output\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 || *frac <= 0 || *frac > 1 {
		flag.Usage()
		return 2
	}

	floor, err := loadFloor(*baseline, *floorKey)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 1
	}

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			return 1
		}
		defer f.Close()
		r = f
	}
	best, runs, err := bestRate(r, *bench, *metric)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 1
	}

	need := *frac * floor
	fmt.Printf("benchgate: %s best %.0f %s over %d run(s); floor %.0f, gate %.0f (%.0f%%)\n",
		*bench, best, *metric, runs, floor, need, 100**frac)
	if best < need {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: %.0f %s < %.0f (%.0f%% of recorded floor %.0f)\n",
			best, *metric, need, 100**frac, floor)
		return 1
	}
	fmt.Println("benchgate: PASS")
	return 0
}

// loadFloor pulls the named acceptance field out of the benchmark record.
func loadFloor(path, key string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		Acceptance map[string]json.RawMessage `json:"acceptance"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, fmt.Errorf("%s: %v", path, err)
	}
	var floor float64
	if raw, ok := doc.Acceptance[key]; ok {
		if err := json.Unmarshal(raw, &floor); err != nil {
			return 0, fmt.Errorf("%s: acceptance.%s: %v", path, key, err)
		}
	}
	if floor <= 0 {
		return 0, fmt.Errorf("%s: acceptance.%s missing or non-positive", path, key)
	}
	return floor, nil
}

// bestRate scans `go test -bench` output for lines of the named benchmark
// and returns the highest value of the named metric seen and how many runs
// matched. Benchmark lines look like:
//
//	BenchmarkKernelSteadyState  	1527	1998848 ns/op	4990 instr/op	2496608 instr/s	...
func bestRate(r io.Reader, bench, metric string) (best float64, runs int, err error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		// -cpu suffixes append "-N" to the name; match the bare name too.
		name := fields[0]
		if name != bench && !strings.HasPrefix(name, bench+"-") {
			continue
		}
		for i := 1; i < len(fields); i++ {
			if fields[i] != metric {
				continue
			}
			v, perr := strconv.ParseFloat(fields[i-1], 64)
			if perr != nil {
				return 0, 0, fmt.Errorf("bad %s value %q: %v", metric, fields[i-1], perr)
			}
			runs++
			if v > best {
				best = v
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if runs == 0 {
		return 0, 0, fmt.Errorf("no %s lines with a %s metric found in input", bench, metric)
	}
	return best, runs, nil
}
