// Package lexer tokenizes PRISC-64 assembly source. It is the bottom layer
// of the text frontend: internal/asm/parser consumes the token stream and
// internal/asm wraps the result into a Program image.
//
// The lexer is a DFA written in the state-function style: each state is a
// func(*Lexer) stateFn that consumes input and returns the next state, so
// the machine's current state is simply which function runs next. Tokens
// carry rune-accurate 1-based line/column positions for diagnostics.
//
// Comment handling is state-aware: ';' and '#' begin a comment everywhere
// except inside a string literal, where they are ordinary characters. The
// old line-splitting assembler got this wrong; the regression test for it
// lives in internal/asm.
//
//prisim:deterministic
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind classifies a token.
type Kind uint8

// Token kinds. Operator kinds exist for the parser's constant-expression
// grammar (.word 3*N+1, ldq r2, (OFF+8)(r1)).
const (
	EOF       Kind = iota
	Illegal        // lexing error; Text holds the message
	Newline        // statement separator
	Ident          // mnemonic, label, register, or symbol reference
	Directive      // .word, .text, ... (Text includes the dot)
	Int            // integer literal (Text verbatim: 42, 0x2A, 0b101010)
	Float          // floating literal (Text verbatim: 2.5, 1e-3)
	Str            // string literal (Text holds the decoded value)
	MacroArg       // \name or \@ inside a macro body (Text without the backslash)
	Colon
	Comma
	LParen
	RParen
	Plus
	Minus
	Star
	Slash
	Percent
	Amp
	Pipe
	Caret
	Tilde
	Shl
	Shr
)

var kindNames = [...]string{
	EOF:       "end of file",
	Illegal:   "illegal token",
	Newline:   "end of line",
	Ident:     "identifier",
	Directive: "directive",
	Int:       "integer",
	Float:     "float",
	Str:       "string",
	MacroArg:  "macro argument",
	Colon:     `":"`,
	Comma:     `","`,
	LParen:    `"("`,
	RParen:    `")"`,
	Plus:      `"+"`,
	Minus:     `"-"`,
	Star:      `"*"`,
	Slash:     `"/"`,
	Percent:   `"%"`,
	Amp:       `"&"`,
	Pipe:      `"|"`,
	Caret:     `"^"`,
	Tilde:     `"~"`,
	Shl:       `"<<"`,
	Shr:       `">>"`,
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Token is one lexeme with its source position. Line and Col are 1-based;
// Col counts runes, not bytes, so diagnostics stay accurate on multi-byte
// input.
type Token struct {
	Kind Kind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case EOF, Newline, Colon, Comma, LParen, RParen,
		Plus, Minus, Star, Slash, Percent, Amp, Pipe, Caret, Tilde, Shl, Shr:
		return t.Kind.String()
	case Str:
		return fmt.Sprintf("string %q", t.Text)
	case MacroArg:
		return fmt.Sprintf(`macro argument "\%s"`, t.Text)
	default:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	}
}

// Width returns the token's display width in runes as it appeared in the
// source. Used by the parser's macro expander to decide whether two tokens
// were adjacent (loop\@ must paste into one identifier). Strings report the
// decoded length and must not be used for adjacency checks.
func (t Token) Width() int {
	switch t.Kind {
	case MacroArg:
		return 1 + utf8.RuneCountInString(t.Text) // leading backslash
	case Shl, Shr:
		return 2
	default:
		return utf8.RuneCountInString(t.Text)
	}
}

// stateFn is one DFA state; it consumes input and returns the next state,
// or nil when the input is exhausted.
type stateFn func(*Lexer) stateFn

// Lexer scans one source text. Create with New, pull tokens with Next;
// after the input ends Next returns EOF forever.
type Lexer struct {
	src   string
	pos   int // byte offset of the next unread rune
	line  int // 1-based line of the next unread rune
	col   int // 1-based rune column of the next unread rune
	state stateFn
	queue []Token // tokens emitted but not yet returned
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1, state: lexLine}
}

// Next returns the next token. The final newline is synthesized if the
// source does not end with one, so every statement is newline-terminated.
func (l *Lexer) Next() Token {
	for len(l.queue) == 0 {
		if l.state == nil {
			return Token{Kind: EOF, Line: l.line, Col: l.col}
		}
		l.state = l.state(l)
	}
	t := l.queue[0]
	copy(l.queue, l.queue[1:])
	l.queue = l.queue[:len(l.queue)-1]
	return t
}

// All scans the remaining input and returns every token up to and
// including the final EOF.
func (l *Lexer) All() []Token {
	var out []Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == EOF {
			return out
		}
	}
}

const eof = rune(-1)

// peek returns the next rune without consuming it.
func (l *Lexer) peek() rune {
	if l.pos >= len(l.src) {
		return eof
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

// next consumes and returns the next rune, tracking line/col.
func (l *Lexer) next() rune {
	if l.pos >= len(l.src) {
		return eof
	}
	r, w := utf8.DecodeRuneInString(l.src[l.pos:])
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) emit(k Kind, text string, line, col int) {
	l.queue = append(l.queue, Token{Kind: k, Text: text, Line: line, Col: col})
}

func (l *Lexer) errorf(line, col int, format string, args ...any) {
	l.emit(Illegal, fmt.Sprintf(format, args...), line, col)
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentRune(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// lexLine is the start state: between tokens on a line.
func lexLine(l *Lexer) stateFn {
	for {
		line, col := l.line, l.col
		r := l.peek()
		switch {
		case r == eof:
			// Synthesize a trailing newline so the parser sees every
			// statement terminated, then stop.
			l.emit(Newline, "\n", line, col)
			l.emit(EOF, "", line, col)
			return nil
		case r == ' ' || r == '\t' || r == '\r':
			l.next()
		case r == ';' || r == '#':
			for l.peek() != '\n' && l.peek() != eof {
				l.next()
			}
		case r == '\n':
			l.next()
			l.emit(Newline, "\n", line, col)
			return lexLine
		case r == '"':
			return lexString
		case r == '\\':
			return lexMacroArg
		case r == '.' || isIdentStart(r):
			return lexIdent
		case unicode.IsDigit(r):
			return lexNumber
		default:
			l.next()
			k, ok := punctKind(r)
			if !ok {
				l.errorf(line, col, "unexpected character %q", r)
				return lexLine
			}
			if k == Shl || k == Shr {
				// '<' and '>' are only valid doubled.
				want := byte('<')
				if k == Shr {
					want = '>'
				}
				if l.peek() != rune(want) {
					l.errorf(line, col, "unexpected character %q (did you mean %q?)", r, string(want)+string(want))
					return lexLine
				}
				l.next()
				l.emit(k, string(want)+string(want), line, col)
				return lexLine
			}
			l.emit(k, string(r), line, col)
			return lexLine
		}
	}
}

func punctKind(r rune) (Kind, bool) {
	switch r {
	case ':':
		return Colon, true
	case ',':
		return Comma, true
	case '(':
		return LParen, true
	case ')':
		return RParen, true
	case '+':
		return Plus, true
	case '-':
		return Minus, true
	case '*':
		return Star, true
	case '/':
		return Slash, true
	case '%':
		return Percent, true
	case '&':
		return Amp, true
	case '|':
		return Pipe, true
	case '^':
		return Caret, true
	case '~':
		return Tilde, true
	case '<':
		return Shl, true
	case '>':
		return Shr, true
	}
	return 0, false
}

// lexIdent scans an identifier or a dot-directive.
func lexIdent(l *Lexer) stateFn {
	line, col := l.line, l.col
	start := l.pos
	kind := Ident
	if l.peek() == '.' {
		kind = Directive
		l.next()
		if !isIdentStart(l.peek()) {
			l.errorf(line, col, "expected directive name after '.'")
			return lexLine
		}
	}
	for isIdentRune(l.peek()) {
		l.next()
	}
	l.emit(kind, l.src[start:l.pos], line, col)
	return lexLine
}

// lexNumber scans an integer or float literal. The text is kept verbatim;
// the parser converts it (strconv with base 0 understands 0x/0o/0b).
func lexNumber(l *Lexer) stateFn {
	line, col := l.line, l.col
	start := l.pos
	kind := Int
	digits := "0123456789"
	if l.peek() == '0' {
		l.next()
		switch l.peek() {
		case 'x', 'X':
			l.next()
			digits = "0123456789abcdefABCDEF"
		case 'b', 'B':
			l.next()
			digits = "01"
		case 'o', 'O':
			l.next()
			digits = "01234567"
		}
	}
	scan := func() {
		for strings.ContainsRune(digits, l.peek()) {
			l.next()
		}
	}
	scan()
	if digits[len(digits)-1] == '9' { // decimal: allow fraction/exponent
		if l.peek() == '.' {
			kind = Float
			l.next()
			scan()
		}
		if r := l.peek(); r == 'e' || r == 'E' {
			kind = Float
			l.next()
			if r := l.peek(); r == '+' || r == '-' {
				l.next()
			}
			if !unicode.IsDigit(l.peek()) {
				l.errorf(line, col, "malformed exponent in %q", l.src[start:l.pos])
				return lexLine
			}
			scan()
		}
	}
	// A trailing identifier rune means a malformed literal like 0xG or 12ab.
	if isIdentRune(l.peek()) {
		for isIdentRune(l.peek()) {
			l.next()
		}
		l.errorf(line, col, "malformed number %q", l.src[start:l.pos])
		return lexLine
	}
	l.emit(kind, l.src[start:l.pos], line, col)
	return lexLine
}

// lexString scans a double-quoted string literal with escapes. ';' and '#'
// inside the literal are plain characters, not comment starts.
func lexString(l *Lexer) stateFn {
	line, col := l.line, l.col
	l.next() // opening quote
	var sb strings.Builder
	for {
		r := l.peek()
		switch r {
		case eof, '\n':
			l.errorf(line, col, "unterminated string literal")
			return lexLine
		case '"':
			l.next()
			l.emit(Str, sb.String(), line, col)
			return lexLine
		case '\\':
			l.next()
			eline, ecol := l.line, l.col
			e := l.next()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '0':
				sb.WriteByte(0)
			case '\\', '"':
				sb.WriteByte(byte(e))
			case 'x':
				hi, okHi := hexVal(l.peek())
				if okHi {
					l.next()
				}
				lo, okLo := hexVal(l.peek())
				if okLo {
					l.next()
				}
				if !okHi || !okLo {
					l.errorf(eline, ecol, `\x escape needs two hex digits`)
					continue
				}
				sb.WriteByte(byte(hi<<4 | lo))
			default:
				l.errorf(eline, ecol, "unknown escape %q in string", e)
			}
		default:
			l.next()
			sb.WriteRune(r)
		}
	}
}

func hexVal(r rune) (int, bool) {
	switch {
	case r >= '0' && r <= '9':
		return int(r - '0'), true
	case r >= 'a' && r <= 'f':
		return int(r-'a') + 10, true
	case r >= 'A' && r <= 'F':
		return int(r-'A') + 10, true
	}
	return 0, false
}

// lexMacroArg scans \name or \@ (macro parameter reference / unique-label
// counter). Outside a macro body the parser rejects these.
func lexMacroArg(l *Lexer) stateFn {
	line, col := l.line, l.col
	l.next() // backslash
	switch {
	case l.peek() == '@':
		l.next()
		l.emit(MacroArg, "@", line, col)
	case isIdentStart(l.peek()):
		start := l.pos
		for isIdentRune(l.peek()) {
			l.next()
		}
		l.emit(MacroArg, l.src[start:l.pos], line, col)
	default:
		l.errorf(line, col, `expected macro parameter name or '@' after '\'`)
	}
	return lexLine
}
