package main

import (
	"fmt"
	"math/rand"
	"strings"

	"prisim/internal/asm"
	"prisim/internal/emu"
)

// genProgram writes one PRISC-64 program from (seed, index): a few hundred
// lines using .equ constants, .macro definitions and a .data table, with a
// loop over a random body of loads, ALU operations, macro calls and stores,
// ending by printing a digest of its registers. The same (seed, index)
// always gives the same source.
func genProgram(seed int64, index int) string {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(index)))
	var b strings.Builder
	words := 16 + rng.Intn(48)
	fmt.Fprintf(&b, "; generated program %d/%d\n", seed, index)
	fmt.Fprintf(&b, ".equ TRIPS, %d\n", 4+rng.Intn(8))
	fmt.Fprintf(&b, ".equ SEED, %d\n", rng.Intn(1000))
	fmt.Fprintf(&b, ".equ WORDS, %d\n", words)
	b.WriteString(`
.macro mix rd, rs, k
  xori \rd, \rs, \k
  slli \rd, \rd, 1
  add  \rd, \rd, \rs
.endm

.macro emit rs
  andi r20, \rs, 15
  addi r20, r20, 65
  putc r20
.endm

.macro spin rd, n
  li   r21, \n
spin\@:
  addi \rd, \rd, 3
  addi r21, r21, -1
  bnez r21, spin\@
.endm

.data
tab:
`)
	for i := 0; i < words; i++ {
		fmt.Fprintf(&b, "  .word %d\n", rng.Int63n(1<<20)-(1<<19))
	}
	b.WriteString("buf:\n  .space WORDS*8\n\n.text\nmain:\n")
	b.WriteString("  la   r1, tab\n  la   r16, buf\n  li   r2, TRIPS\n  li   r3, SEED\n")
	for r := 4; r <= 15; r++ {
		fmt.Fprintf(&b, "  li   r%d, %d\n", r, rng.Intn(200)-100)
	}
	b.WriteString("loop:\n")
	reg := func() int { return 3 + rng.Intn(13) }
	ops := []string{"add", "sub", "xor", "and", "or", "slt", "mul"}
	for i, n := 0, 150+rng.Intn(150); i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 2:
			fmt.Fprintf(&b, "  ldq  r%d, %d(r1)\n", reg(), 8*rng.Intn(words))
		case k < 5:
			fmt.Fprintf(&b, "  %-4s r%d, r%d, r%d\n", ops[rng.Intn(len(ops))], reg(), reg(), reg())
		case k < 7:
			fmt.Fprintf(&b, "  addi r%d, r%d, %d\n", reg(), reg(), rng.Intn(128)-64)
		case k < 8:
			fmt.Fprintf(&b, "  mix  r%d, r%d, %d\n", reg(), reg(), rng.Intn(64))
		case k < 9:
			fmt.Fprintf(&b, "  stq  r%d, %d(r16)\n", reg(), 8*rng.Intn(words))
		default:
			if rng.Intn(8) == 0 {
				fmt.Fprintf(&b, "  spin r%d, %d\n", reg(), 2+rng.Intn(6))
			} else {
				fmt.Fprintf(&b, "  srli r%d, r%d, %d\n", reg(), reg(), 1+rng.Intn(8))
			}
		}
	}
	b.WriteString("  addi r2, r2, -1\n  bnez r2, loop\n")
	for r := 3; r <= 15; r++ {
		fmt.Fprintf(&b, "  emit r%d\n", r)
	}
	b.WriteString("  li   r20, 10\n  putc r20\n  halt\n")
	return b.String()
}

// reformat rewrites a program's layout without changing what it assembles
// to: indentation, operand spacing, blank lines and comments change, so a
// resubmission has different source bytes but the same image hash.
func reformat(src string, rng *rand.Rand) string {
	var b strings.Builder
	indent := []string{"\t", "    ", "  ", " "}[rng.Intn(4)]
	sep := []string{", ", ",", " , "}[rng.Intn(3)]
	for i, line := range strings.Split(src, "\n") {
		code, comment, hasComment := strings.Cut(line, ";")
		code = strings.TrimSpace(code)
		if code != "" && !strings.HasSuffix(code, ":") && !strings.HasPrefix(code, ".") {
			if mn, rest, ok := strings.Cut(code, " "); ok {
				fields := strings.Split(rest, ",")
				for j := range fields {
					fields[j] = strings.TrimSpace(fields[j])
				}
				code = indent + mn + " " + strings.Join(fields, sep)
			}
		}
		if hasComment {
			code += "  ;" + strings.TrimSpace(comment)
		} else if code != "" && rng.Intn(16) == 0 {
			code += " ; note " + fmt.Sprint(i)
		}
		b.WriteString(code)
		b.WriteByte('\n')
		if rng.Intn(24) == 0 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// functionalOutput runs a program on the functional emulator alone and
// returns its console output: what any timing run of it must print.
func functionalOutput(src string) ([]byte, error) {
	prog, err := asm.AssembleFile("program.s", src)
	if err != nil {
		return nil, err
	}
	m := emu.New(prog)
	m.Run(50 << 20)
	if !m.Halted() {
		return nil, fmt.Errorf("program did not halt")
	}
	return m.Output(), nil
}
