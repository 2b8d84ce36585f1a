package parser

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"prisim/internal/isa"
)

const (
	testCodeBase = 0x0001_0000
	testDataBase = 0x0100_0000
)

func parse(t *testing.T, src string) *Image {
	t.Helper()
	img, err := Parse(src, Config{CodeBase: testCodeBase, DataBase: testDataBase})
	if err != nil {
		t.Fatalf("Parse failed:\n%v", err)
	}
	return img
}

func parseErr(t *testing.T, src string) *Error {
	t.Helper()
	_, err := Parse(src, Config{CodeBase: testCodeBase, DataBase: testDataBase})
	if err == nil {
		t.Fatalf("Parse(%q) succeeded, want error", src)
	}
	var pe *Error
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *Error", err)
	}
	return pe
}

func decode(img *Image, i int) isa.Inst { return isa.Decode(img.Code[i]) }

func TestConstantExpressions(t *testing.T) {
	img := parse(t, `
.equ N, 8
.data
tbl: .word 3*N+1, (N+2)*4, 1<<N, N-10, ~0, 100/N, -100/4, 0xFF&0x0F, 1|2|4, 7^5, 100%N
.text
main: halt
`)
	want := []uint64{25, 40, 256, ^uint64(1), ^uint64(0), 12, ^uint64(24), 0x0F, 7, 2, 4}
	if len(img.Data) != 1 || len(img.Data[0].Bytes) != 8*len(want) {
		t.Fatalf("data = %+v", img.Data)
	}
	for i, w := range want {
		got := binary.LittleEndian.Uint64(img.Data[0].Bytes[8*i:])
		if got != w {
			t.Errorf("word %d = %d (%#x), want %d", i, got, got, w)
		}
	}
}

func TestExprPrecedenceAndParens(t *testing.T) {
	img := parse(t, `
.data
v: .word 2+3*4, (2+3)*4, 16>>2+2, 1<<2*2
.text
main: halt
`)
	// <<,>> bind looser than +,*: 16>>(2+2)=1, 1<<(2*2)=16.
	want := []uint64{14, 20, 1, 16}
	for i, w := range want {
		if got := binary.LittleEndian.Uint64(img.Data[0].Bytes[8*i:]); got != w {
			t.Errorf("word %d = %d, want %d", i, got, w)
		}
	}
}

func TestMemOperandExpression(t *testing.T) {
	img := parse(t, `
.equ OFF, 8
.data
d: .word 1, 2, 3
.text
main:
  la  r1, d
  ldq r2, (OFF+8)(r1)
  ldq r3, OFF(r1)
  ldq r4, (r1)
  halt
`)
	find := func(imm int64) bool {
		for _, w := range img.Code {
			in := isa.Decode(w)
			if in.Op == isa.OpLDQ && in.Imm == imm {
				return true
			}
		}
		return false
	}
	for _, imm := range []int64{16, 8, 0} {
		if !find(imm) {
			t.Errorf("no ldq with offset %d", imm)
		}
	}
}

func TestImmediateExpression(t *testing.T) {
	img := parse(t, `
.equ STEP, 3
.text
main:
  addi r1, zero, STEP*4-2
  halt
`)
	if in := decode(img, 0); in.Op != isa.OpADDI || in.Imm != 10 {
		t.Errorf("inst 0 = %v", in)
	}
}

func TestEquSetAndRedefinition(t *testing.T) {
	parse(t, ".equ A, 1\n.set B, A+1\n.text\nmain: addi r1, zero, B\nhalt")
	pe := parseErr(t, ".equ A, 1\n.equ A, 2\nhalt")
	if !strings.Contains(pe.Error(), "duplicate symbol") {
		t.Errorf("error = %v", pe)
	}
}

func TestMacroWithParamsAndLocalLabels(t *testing.T) {
	img := parse(t, `
.macro countdown reg, start
  li \reg, \start
loop\@:
  addi \reg, \reg, -1
  bnez \reg, loop\@
.endm
.text
main:
  countdown r1, 3
  countdown r2, 5
  halt
`)
	// Two expansions, each 3 instructions, plus halt.
	if len(img.Code) != 7 {
		t.Fatalf("len(code) = %d, want 7", len(img.Code))
	}
	// Both branches must be backward by one instruction (disp -2).
	for _, i := range []int{2, 5} {
		if in := decode(img, i); in.Op != isa.OpBNE || in.Imm != -2 {
			t.Errorf("inst %d = %v, want bne disp -2", i, in)
		}
	}
	if _, ok := img.Symbols["loop0"]; !ok {
		t.Error("loop0 not defined")
	}
	if _, ok := img.Symbols["loop1"]; !ok {
		t.Error("loop1 not defined")
	}
}

func TestMacroInvokingMacro(t *testing.T) {
	img := parse(t, `
.macro twice reg
  addi \reg, \reg, 2
.endm
.macro quad reg
  twice \reg
  twice \reg
.endm
.text
main:
  quad r3
  halt
`)
	if len(img.Code) != 3 {
		t.Fatalf("len(code) = %d, want 3", len(img.Code))
	}
	for i := 0; i < 2; i++ {
		if in := decode(img, i); in.Op != isa.OpADDI || in.Imm != 2 {
			t.Errorf("inst %d = %v", i, in)
		}
	}
}

func TestMacroExpressionArgument(t *testing.T) {
	img := parse(t, `
.equ N, 4
.macro addk rd, k
  addi \rd, \rd, \k
.endm
.text
main:
  addk r1, N*2+1
  halt
`)
	if in := decode(img, 0); in.Imm != 9 {
		t.Errorf("inst 0 = %v, want imm 9", in)
	}
}

func TestMacroErrors(t *testing.T) {
	cases := map[string]string{
		".macro m\nnop\n.endm\n.macro m\nnop\n.endm\nhalt":  "duplicate macro",
		".macro add\nnop\n.endm\nhalt":                      "shadows an instruction",
		".macro m a\nnop\n.endm\n.text\nm 1, 2\nhalt":       "takes 1 argument(s), got 2",
		".macro m\naddi r1, r1, \\k\n.endm\n.text\nm\nhalt": `unknown macro parameter \k`,
		".macro m\nnop\nhalt":                               "missing .endm",
		".endm\nhalt":                                       ".endm without",
		".macro r\nr\n.endm\n.text\nr\nhalt":                "exceeds depth",
	}
	for src, want := range cases {
		pe := parseErr(t, src)
		if !strings.Contains(pe.Error(), want) {
			t.Errorf("Parse(%q) error = %v, want substring %q", src, pe, want)
		}
	}
}

func TestForwardReferenceToLaterData(t *testing.T) {
	// The old frontend required data before la; the new one resolves
	// references into later .data blocks.
	img := parse(t, `
.text
main:
  la  r1, later
  ldq r2, 0(r1)
  halt
.data
later: .word 99
`)
	if img.Symbols["later"] == 0 {
		t.Fatal("later not defined")
	}
	if got := binary.LittleEndian.Uint64(img.Data[0].Bytes); got != 99 {
		t.Errorf("data = %d", got)
	}
}

func TestForwardBranchAndDataRefInWord(t *testing.T) {
	img := parse(t, `
.data
ptrs: .word main, end
.text
main:
  beq zero, zero, end
  nop
end:
  halt
`)
	if got := binary.LittleEndian.Uint64(img.Data[0].Bytes); got != img.Symbols["main"] {
		t.Errorf("ptrs[0] = %#x, want main %#x", got, img.Symbols["main"])
	}
	if got := binary.LittleEndian.Uint64(img.Data[0].Bytes[8:]); got != img.Symbols["end"] {
		t.Errorf("ptrs[1] = %#x, want end %#x", got, img.Symbols["end"])
	}
	if in := decode(img, 0); in.Op != isa.OpBEQ || in.Imm != 1 {
		t.Errorf("inst 0 = %v, want beq disp 1", in)
	}
}

func TestAlignDirective(t *testing.T) {
	img := parse(t, `
.data
a: .byte 1
.align 64
b: .byte 2
.text
main: halt
`)
	if img.Symbols["b"]%64 != 0 {
		t.Errorf("b = %#x, not 64-aligned", img.Symbols["b"])
	}
	if img.Symbols["b"] <= img.Symbols["a"] {
		t.Errorf("b = %#x not after a = %#x", img.Symbols["b"], img.Symbols["a"])
	}
	pe := parseErr(t, ".data\n.align 3\n.text\nhalt")
	if !strings.Contains(pe.Error(), "power-of-two") {
		t.Errorf("error = %v", pe)
	}
}

func TestAsciiAsciz(t *testing.T) {
	img := parse(t, `
.data
a: .ascii "ab", "cd"
z: .asciz "x"
.text
main: halt
`)
	if string(img.Data[0].Bytes) != "abcd" {
		t.Errorf(".ascii bytes = %q", img.Data[0].Bytes)
	}
	if string(img.Data[1].Bytes) != "x\x00" {
		t.Errorf(".asciz bytes = %q", img.Data[1].Bytes)
	}
}

func TestFloatData(t *testing.T) {
	img := parse(t, `
.data
v: .float 2.5, -1.5, 3, 1e2
.text
main: halt
`)
	want := []float64{2.5, -1.5, 3, 100}
	for i, w := range want {
		got := math.Float64frombits(binary.LittleEndian.Uint64(img.Data[0].Bytes[8*i:]))
		if got != w {
			t.Errorf("float %d = %v, want %v", i, got, w)
		}
	}
}

func TestDiagnosticsCollectedAndPositioned(t *testing.T) {
	pe := parseErr(t, `.text
main:
  frobnicate r1, r2
  addi r1, r2, bogus_sym
  halt
`)
	if len(pe.Diags) < 2 {
		t.Fatalf("got %d diagnostics, want >= 2:\n%v", len(pe.Diags), pe)
	}
	for _, d := range pe.Diags {
		if d.Line <= 0 || d.Col <= 0 {
			t.Errorf("diagnostic without position: %+v", d)
		}
		if d.File != "<input>" {
			t.Errorf("diagnostic file = %q", d.File)
		}
	}
	if pe.Diags[0].Line > pe.Diags[1].Line {
		t.Error("diagnostics not sorted by position")
	}
	if !strings.Contains(pe.Diags[0].Msg, "frobnicate") {
		t.Errorf("first diagnostic = %+v", pe.Diags[0])
	}
	if pe.Diags[0].Excerpt == "" || !strings.Contains(pe.Diags[0].Excerpt, "frobnicate") {
		t.Errorf("excerpt missing: %+v", pe.Diags[0])
	}
}

func TestDiagnosticRendering(t *testing.T) {
	pe := parseErr(t, "  zork r1\nhalt")
	s := pe.Error()
	if !strings.Contains(s, "<input>:1:3:") {
		t.Errorf("rendered error missing position: %q", s)
	}
	if !strings.Contains(s, "^") {
		t.Errorf("rendered error missing caret: %q", s)
	}
}

func TestDiagnosticCap(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(".text\n")
	for i := 0; i < 300; i++ {
		sb.WriteString("bogus r1\n")
	}
	pe := parseErr(t, sb.String())
	if len(pe.Diags) > maxDiagnostics+1 {
		t.Fatalf("got %d diagnostics, cap is %d", len(pe.Diags), maxDiagnostics)
	}
	last := pe.Diags[len(pe.Diags)-1]
	if !strings.Contains(last.Msg, "too many errors") {
		t.Errorf("missing cap notice, last = %+v", last)
	}
}

func TestFileNameInDiagnostics(t *testing.T) {
	_, err := Parse("zork", Config{File: "prog.s", CodeBase: testCodeBase, DataBase: testDataBase})
	var pe *Error
	if !errors.As(err, &pe) || pe.Diags[0].File != "prog.s" {
		t.Fatalf("err = %v", err)
	}
}

func TestErrorsNeverPanicOnBadInput(t *testing.T) {
	bad := []string{
		"", "\n", ":", "::", "x:", "(", ")", ",", "li", "li r1", "li r1,",
		".word", ".data\n.word (", ".data\n.word 1+", ".data\n.word ()",
		".macro", ".macro 1", `\a`, `\@`, ".data\nx: .space", ".align",
		".equ", ".equ x", "beq r1, r2", "j", "1+2", `.ascii 5`,
		".data\n.float x", "ldq r1, 8(", "ldq r1, 8()", "ldq r1, )8(r1)",
		"addi r1, zero, 0x10000000000000000",
	}
	for _, src := range bad {
		img, err := Parse(src, Config{CodeBase: testCodeBase, DataBase: testDataBase})
		// Empty-ish inputs may legitimately produce an empty image; what
		// matters is no panic and positioned diagnostics when they fail.
		if err != nil {
			var pe *Error
			if !errors.As(err, &pe) {
				t.Errorf("Parse(%q): error is %T", src, err)
				continue
			}
			for _, d := range pe.Diags {
				if d.Line <= 0 || d.Col <= 0 {
					t.Errorf("Parse(%q): unpositioned diagnostic %+v", src, d)
				}
			}
		} else if img == nil {
			t.Errorf("Parse(%q): nil image without error", src)
		}
	}
}

func TestImmEncodeRangeError(t *testing.T) {
	pe := parseErr(t, ".text\nmain: addi r1, zero, 70000\nhalt")
	if !strings.Contains(pe.Error(), "cannot encode") {
		t.Errorf("error = %v", pe)
	}
}

func TestBranchRangeError(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(".text\nmain: beq zero, zero, far\n")
	for i := 0; i < 1<<15+10; i++ {
		sb.WriteString("nop\n")
	}
	sb.WriteString("far: halt\n")
	pe := parseErr(t, sb.String())
	if !strings.Contains(pe.Error(), "out of range") {
		t.Errorf("error = %v", pe)
	}
}

func TestEntryIsMainElseCodeBase(t *testing.T) {
	img := parse(t, ".text\nnop\nmain: halt")
	if img.Entry != img.Symbols["main"] {
		t.Errorf("entry = %#x, want main", img.Entry)
	}
	img = parse(t, ".text\nhalt")
	if img.Entry != testCodeBase {
		t.Errorf("entry = %#x, want code base", img.Entry)
	}
}

func TestOrphanDataLabel(t *testing.T) {
	for _, src := range []string{
		".data\norphan:\n.text\nhalt",
		".data\norphan:",
	} {
		pe := parseErr(t, src)
		if !strings.Contains(pe.Error(), "has no directive") {
			t.Errorf("Parse(%q) error = %v", src, pe)
		}
	}
}

func TestCommentCharsInStringLiteral(t *testing.T) {
	img := parse(t, `
.data
msg: .asciz "semi;hash#done"
.text
main: halt
`)
	if string(img.Data[0].Bytes) != "semi;hash#done\x00" {
		t.Errorf("bytes = %q", img.Data[0].Bytes)
	}
}

func TestConstExcludedFromSymbols(t *testing.T) {
	img := parse(t, ".equ N, 65536\n.text\nmain: addi r1, zero, N/65536\nhalt")
	if _, ok := img.Symbols["N"]; ok {
		t.Error(".equ constant leaked into Symbols")
	}
}
