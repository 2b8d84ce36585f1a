// Regsweep: the paper's Figure 9 axis for one benchmark — how baseline IPC
// and the benefit of physical register inlining change with the size of the
// physical register file.
//
//	go run ./examples/regsweep [benchmark]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"prisim"
)

func main() {
	bench := "twolf"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	ctx := context.Background()
	eng := prisim.NewEngine()
	fmt.Printf("%s, 8-wide machine: IPC vs physical register file size\n\n", bench)
	fmt.Printf("%6s  %10s  %10s  %8s\n", "PRs", "base IPC", "PRI IPC", "PRI gain")
	for _, prs := range []int{40, 48, 56, 64, 72, 80, 96, 128} {
		base, err := eng.Simulate(ctx, prisim.Options{
			Benchmark: bench, Width: 8, PhysRegs: prs,
		})
		if err != nil {
			log.Fatal(err)
		}
		pri, err := eng.Simulate(ctx, prisim.Options{
			Benchmark: bench, Width: 8, PhysRegs: prs, Policy: prisim.PolicyPRI,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d  %10.3f  %10.3f  %+7.1f%%\n",
			prs, base.IPC, pri.IPC, 100*(pri.IPC/base.IPC-1))
	}
	fmt.Println("\nPRI's benefit concentrates where the machine is register-")
	fmt.Println("constrained: small register files gain the most, and the")
	fmt.Println("gain fades as the file grows past the workload's appetite.")
}
