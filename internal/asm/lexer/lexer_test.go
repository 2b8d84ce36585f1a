package lexer

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func scan(t *testing.T, src string) []Token {
	t.Helper()
	toks := New(src).All()
	if len(toks) == 0 || toks[len(toks)-1].Kind != EOF {
		t.Fatalf("token stream not EOF-terminated: %v", toks)
	}
	return toks
}

func TestBasicLine(t *testing.T) {
	toks := scan(t, "main: addi r1, zero, 7")
	want := []Kind{Ident, Colon, Ident, Ident, Comma, Ident, Comma, Int, Newline, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (stream %v)", i, got[i], want[i], toks)
		}
	}
	if toks[0].Text != "main" || toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("label token = %+v", toks[0])
	}
	if toks[7].Text != "7" || toks[7].Col != 22 {
		t.Errorf("immediate token = %+v", toks[7])
	}
}

func TestPositionsAreRuneAccurate(t *testing.T) {
	// Multi-byte runes in a comment must not skew following positions.
	toks := scan(t, "; héllo wörld\nadd r1, r2, r3")
	if toks[0].Kind != Newline {
		t.Fatalf("first token %v", toks[0])
	}
	add := toks[1]
	if add.Text != "add" || add.Line != 2 || add.Col != 1 {
		t.Errorf("add token = %+v", add)
	}
}

func TestCommentsStripped(t *testing.T) {
	for _, src := range []string{"nop ; tail", "nop # tail", "nop;tail", "nop#tail"} {
		toks := scan(t, src)
		if len(toks) != 3 || toks[0].Text != "nop" || toks[1].Kind != Newline {
			t.Errorf("scan(%q) = %v", src, toks)
		}
	}
}

func TestCommentCharsInsideString(t *testing.T) {
	toks := scan(t, `.ascii "a;b#c"`)
	if toks[1].Kind != Str || toks[1].Text != "a;b#c" {
		t.Fatalf("string token = %+v (stream %v)", toks[1], toks)
	}
}

func TestStringEscapes(t *testing.T) {
	toks := scan(t, `.asciz "hi\n\t\"q\"\x41\0"`)
	want := "hi\n\t\"q\"A\x00"
	if toks[1].Kind != Str || toks[1].Text != want {
		t.Fatalf("decoded = %q, want %q", toks[1].Text, want)
	}
}

func TestStringErrors(t *testing.T) {
	cases := map[string]string{
		`.ascii "abc`:     "unterminated",
		`.ascii "a\q"`:    "unknown escape",
		`.ascii "a\x4"`:   "two hex digits",
		".ascii \"a\nb\"": "unterminated",
	}
	for src, wantSub := range cases {
		var ill []Token
		for _, tok := range scan(t, src) {
			if tok.Kind == Illegal {
				ill = append(ill, tok)
			}
		}
		if len(ill) == 0 {
			t.Errorf("scan(%q): no Illegal token", src)
			continue
		}
		if !strings.Contains(ill[0].Text, wantSub) {
			t.Errorf("scan(%q): error %q, want substring %q", src, ill[0].Text, wantSub)
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
	}{
		{"42", Int}, {"0", Int}, {"0x2A", Int}, {"0b1010", Int}, {"0o17", Int},
		{"2.5", Float}, {"1e-3", Float}, {"10E6", Float}, {"0.25", Float},
	}
	for _, c := range cases {
		toks := scan(t, c.src)
		if toks[0].Kind != c.kind || toks[0].Text != c.src {
			t.Errorf("scan(%q) first token = %+v, want kind %v", c.src, toks[0], c.kind)
		}
	}
	for _, bad := range []string{"0xG", "12ab", "1e+"} {
		toks := scan(t, bad)
		if toks[0].Kind != Illegal {
			t.Errorf("scan(%q) = %+v, want Illegal", bad, toks[0])
		}
	}
}

func TestOperators(t *testing.T) {
	toks := scan(t, "1+2-3*4/5%6&7|8^9~0<<1>>2")
	want := []Kind{Int, Plus, Int, Minus, Int, Star, Int, Slash, Int, Percent,
		Int, Amp, Int, Pipe, Int, Caret, Int, Tilde, Int, Shl, Int, Shr, Int, Newline, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Single '<' is an error, not a silent Shl.
	toks = scan(t, "1 < 2")
	if toks[1].Kind != Illegal {
		t.Errorf("single '<' token = %+v, want Illegal", toks[1])
	}
}

func TestMacroArgs(t *testing.T) {
	toks := scan(t, `loop\@: addi \rd, \rd, 1`)
	if toks[0].Kind != Ident || toks[0].Text != "loop" {
		t.Fatalf("stream %v", toks)
	}
	if toks[1].Kind != MacroArg || toks[1].Text != "@" {
		t.Errorf("counter token = %+v", toks[1])
	}
	if toks[1].Col != 5 {
		t.Errorf("counter col = %d, want 5", toks[1].Col)
	}
	if toks[4].Kind != MacroArg || toks[4].Text != "rd" {
		t.Errorf("param token = %+v", toks[4])
	}
	// Adjacency: "loop" ends where "\@" starts.
	if toks[0].Col+toks[0].Width() != toks[1].Col {
		t.Errorf("adjacency broken: %+v then %+v", toks[0], toks[1])
	}
}

func TestDirectives(t *testing.T) {
	toks := scan(t, ".data\n.word 1, 2")
	if toks[0].Kind != Directive || toks[0].Text != ".data" {
		t.Fatalf("directive token = %+v", toks[0])
	}
	if toks[2].Kind != Directive || toks[2].Text != ".word" {
		t.Fatalf("directive token = %+v", toks[2])
	}
	toks = scan(t, ". word")
	if toks[0].Kind != Illegal {
		t.Errorf("bare dot = %+v, want Illegal", toks[0])
	}
}

func TestEOFSynthesizesNewline(t *testing.T) {
	toks := scan(t, "halt")
	if len(toks) != 3 || toks[1].Kind != Newline || toks[2].Kind != EOF {
		t.Fatalf("stream %v", toks)
	}
	// Next keeps returning EOF after exhaustion.
	l := New("x")
	for range [5]int{} {
		l.Next()
	}
	if tok := l.Next(); tok.Kind != EOF {
		t.Errorf("post-exhaustion token %v", tok)
	}
}

func TestBlankAndCommentOnlyLines(t *testing.T) {
	toks := scan(t, "\n  ; only a comment\n\t\nnop\n")
	var idents []Token
	for _, tok := range toks {
		if tok.Kind == Ident {
			idents = append(idents, tok)
		}
	}
	if len(idents) != 1 || idents[0].Text != "nop" || idents[0].Line != 4 {
		t.Fatalf("idents = %v", idents)
	}
}
