// Quickstart: simulate one benchmark under the baseline release policy and
// under physical register inlining, and compare.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"prisim"
)

func main() {
	bench := "mcf" // the paper's most register-starved integer benchmark
	ctx := context.Background()
	eng := prisim.NewEngine()

	base, err := eng.Simulate(ctx, prisim.Options{Benchmark: bench, Width: 8})
	if err != nil {
		log.Fatal(err)
	}
	pri, err := eng.Simulate(ctx, prisim.Options{
		Benchmark: bench,
		Width:     8,
		Policy:    prisim.PolicyPRI,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark           %s (8-wide machine, 64+64 physical registers)\n", bench)
	fmt.Printf("baseline IPC        %.3f\n", base.IPC)
	fmt.Printf("PRI IPC             %.3f  (%+.1f%%)\n", pri.IPC, 100*(pri.IPC/base.IPC-1))
	fmt.Printf("occupancy           %.1f -> %.1f integer registers\n",
		base.IntOccupancy, pri.IntOccupancy)
	fmt.Printf("register lifetime   %.0f -> %.0f cycles (alloc->release)\n",
		base.AllocToWrite+base.WriteToRead+base.ReadToRelease,
		pri.AllocToWrite+pri.WriteToRead+pri.ReadToRelease)
	fmt.Printf("inlined operands    %.1f%% of source reads came from the map\n",
		100*pri.InlineFraction)

	fmt.Println("\navailable benchmarks:")
	for _, b := range prisim.Benchmarks() {
		fmt.Printf("  %-9s %s\n", b.Name, b.Description)
	}
}
