package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// fakeAnalyzer reports one diagnostic per line listed in hits.
func fakeAnalyzer(name string, hits ...int) *Analyzer {
	return &Analyzer{
		Name: name,
		Doc:  "test analyzer",
		Run: func(p *Pass) (any, error) {
			f := p.Fset.File(p.Files[0].Pos())
			for _, line := range hits {
				p.Reportf(f.LineStart(line), "finding on line %d", line)
			}
			return nil, nil
		},
	}
}

func parseUnit(t *testing.T, src string) *Unit {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := types.NewPackage("fix", "fix")
	return &Unit{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: &types.Info{}}
}

func TestSuppression(t *testing.T) {
	const src = `package fix

var a = 1 //lint:ignore alpha trailing form suppresses its own line

//lint:ignore alpha comment-above form suppresses the next line
var b = 2

//lint:ignore alpha,beta a list suppresses several analyzers
var c = 3

//lint:ignore alpha
var d = 4 // no reason given: the directive is void

var e = 5 // unsuppressed
`
	// Line numbers: a=3, b=6, c=9, d=12(directive 11), e=14.
	alpha := fakeAnalyzer("alpha", 3, 6, 9, 12, 14)
	beta := fakeAnalyzer("beta", 9, 14)

	diags, err := Run([]*Unit{parseUnit(t, src)}, []*Analyzer{alpha, beta}, false)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+":"+itoa(d.Pos.Line))
	}
	want := []string{"alpha:12", "alpha:14", "beta:14"}
	if len(got) != len(want) {
		t.Fatalf("surviving diagnostics = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag[%d] = %s, want %s", i, got[i], want[i])
		}
	}

	// keepSuppressed retains everything for analysistest.
	all, err := Run([]*Unit{parseUnit(t, src)}, []*Analyzer{alpha, beta}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 7 {
		t.Errorf("keepSuppressed kept %d diagnostics, want 7", len(all))
	}
}

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text  string
		names []string
	}{
		{"//lint:ignore alpha because reasons", []string{"alpha"}},
		{"//lint:ignore alpha,beta shared justification", []string{"alpha", "beta"}},
		{"//lint:ignore alpha", nil},    // reason mandatory
		{"// lint:ignore alpha x", nil}, // not a directive (space)
		{"//lint:ignored alpha x", nil},
	}
	for _, c := range cases {
		names, ok := parseIgnore(c.text)
		if (c.names == nil) == ok {
			t.Errorf("parseIgnore(%q) ok = %v", c.text, ok)
			continue
		}
		if len(names) != len(c.names) {
			t.Errorf("parseIgnore(%q) = %v, want %v", c.text, names, c.names)
		}
	}
}

func TestDirectiveArgs(t *testing.T) {
	const src = `package fix

//prisim:locked mu
//prisim:hotpath
func f() {}
`
	u := parseUnit(t, src)
	fd := u.Files[0].Decls[0].(*ast.FuncDecl)
	if args, ok := DirectiveArgs(fd.Doc, "//prisim:locked"); !ok || args != "mu" {
		t.Errorf("locked args = %q, %v", args, ok)
	}
	if !HasDirective(fd.Doc, "//prisim:hotpath") {
		t.Error("hotpath directive not found")
	}
	if HasDirective(fd.Doc, "//prisim:hot") {
		t.Error("prefix must not match a longer directive name")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
