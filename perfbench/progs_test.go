package main

import (
	"math/rand"
	"testing"

	"prisim/internal/asm"
	"prisim/internal/asm/analysis"
)

func TestGeneratedProgramsAssembleLintCleanAndHalt(t *testing.T) {
	for i := 0; i < 20; i++ {
		src := genProgram(7, i)
		prog, err := asm.AssembleFile("program.s", src)
		if err != nil {
			t.Fatalf("program %d: %v\n%s", i, err, src)
		}
		rep := analysis.Analyze(prog, analysis.Options{})
		for _, d := range rep.Diagnostics(prog, "program.s", src) {
			if d.Severity == analysis.SevError.String() {
				t.Fatalf("program %d: lint error %s", i, d)
			}
		}
		out, err := functionalOutput(src)
		if err != nil || len(out) != 14 {
			t.Fatalf("program %d: output %q, err %v", i, out, err)
		}
		if genProgram(7, i) != src {
			t.Fatalf("program %d is not a pure function of (seed, index)", i)
		}
	}
}

func TestReformatKeepsImage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		src := genProgram(11, i)
		re := reformat(src, rng)
		if re == src {
			t.Fatalf("program %d: reformat changed nothing", i)
		}
		a, err := asm.AssembleFile("program.s", src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := asm.AssembleFile("program.s", re)
		if err != nil {
			t.Fatalf("reformatted program %d: %v\n%s", i, err, re)
		}
		if a.SHA256() != b.SHA256() {
			t.Fatalf("program %d: reformat changed the image hash", i)
		}
	}
}
