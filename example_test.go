package prisim_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"prisim"
)

// ExampleEngine_Simulate runs the paper's most register-starved integer
// benchmark under physical register inlining and prints stable facts about
// the run.
func ExampleEngine_Simulate() {
	res, err := prisim.NewEngine().Simulate(context.Background(), prisim.Options{
		Benchmark:   "mcf",
		Width:       8,
		Policy:      prisim.PolicyPRI,
		FastForward: 1000,
		Run:         5000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Benchmark)
	fmt.Println(res.IPC > 0 && res.IPC < 4)
	fmt.Println(res.IntOccupancy <= 64)
	// Output:
	// mcf
	// true
	// true
}

// ExampleBenchmarks enumerates the workload suite.
func ExampleBenchmarks() {
	bs := prisim.Benchmarks()
	fp := 0
	for _, b := range bs {
		if b.FP {
			fp++
		}
	}
	fmt.Printf("%d benchmarks (%d integer, %d floating point)\n", len(bs), len(bs)-fp, fp)
	// Output:
	// 27 benchmarks (13 integer, 14 floating point)
}

// ExampleEngine_Experiment regenerates one of the paper's tables.
func ExampleEngine_Experiment() {
	out, err := prisim.NewEngine().Experiment(context.Background(), "table1", prisim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(strings.Contains(out, "scheduler entries"))
	// Output:
	// true
}

// ExamplePolicies lists the evaluated release schemes.
func ExamplePolicies() {
	fmt.Println(len(prisim.Policies()))
	// Output:
	// 8
}
