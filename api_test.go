package prisim

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// publicAPI pins package prisim's exported identifiers: every constant,
// variable, function, type, method and struct field, with its type or
// signature. Anything the experiment engine declares must stay unexported.
var publicAPI = []string{
	"const DefaultFastForward",
	"const DefaultRun",
	"const PolicyBase",
	"const PolicyER",
	"const PolicyInfinite",
	"const PolicyPRI",
	"const PolicyPRIIdealCkpt",
	"const PolicyPRIIdealLazy",
	"const PolicyPRIPlusER",
	"const PolicyPRIRcLazy",
	"field Benchmark.Description string",
	"field Benchmark.FP bool",
	"field Benchmark.Name string",
	"field Benchmark.PaperIPC4 float64",
	"field CacheStats.Coalesced int",
	"field CacheStats.Executed int",
	"field CacheStats.Hits int",
	"field CacheStats.SnapshotBuilds int",
	"field CacheStats.SnapshotBytes uint64",
	"field CacheStats.SnapshotFFInstructions uint64",
	"field CacheStats.SnapshotHits int",
	"field Options.Benchmark string",
	"field Options.DelayedAllocation bool",
	"field Options.FastForward uint64",
	"field Options.MachineJSON []byte",
	"field Options.MemLimit uint64",
	"field Options.PhysRegs int",
	"field Options.PipeView io.Writer",
	"field Options.Policy Policy",
	"field Options.RenameInline bool",
	"field Options.Run uint64",
	"field Options.Width int",
	"field ProgramResult embedded Result",
	"field ProgramResult.Output []byte",
	"field Result.AllocToWrite float64",
	"field Result.Benchmark string",
	"field Result.BranchResolved uint64",
	"field Result.Committed uint64",
	"field Result.Cycles uint64",
	"field Result.DL1MissRate float64",
	"field Result.DeferredFrees uint64",
	"field Result.EarlyFrees uint64",
	"field Result.FPOccupancy float64",
	"field Result.FPPRs int",
	"field Result.IPC float64",
	"field Result.InlineFraction float64",
	"field Result.InlinedResults uint64",
	"field Result.IntOccupancy float64",
	"field Result.IntPRs int",
	"field Result.L2MissRate float64",
	"field Result.Machine string",
	"field Result.MispredictRate float64",
	"field Result.ReadToRelease float64",
	"field Result.Replays uint64",
	"field Result.WAWSuppressed uint64",
	"field Result.WriteToRead float64",
	"field Table.Columns []string",
	"field Table.Rows [][]string",
	"field Table.Title string",
	"func (*Engine) Budget func() (fastForward, run uint64)",
	"func (*Engine) CacheStats func() CacheStats",
	"func (*Engine) Experiment func(ctx context.Context, name string, o Options) (string, error)",
	"func (*Engine) ExperimentTables func(ctx context.Context, name string, o Options) ([]Table, error)",
	"func (*Engine) ProgressView func(fn func(done, total int)) *Engine",
	"func (*Engine) RunsExecuted func() int",
	"func (*Engine) Simulate func(ctx context.Context, o Options) (Result, error)",
	"func (*Engine) SimulateProgram func(ctx context.Context, p *Program, o Options) (ProgramResult, error)",
	"func (*Engine) WriteReport func(ctx context.Context, w io.Writer, o Options) error",
	"func (*Program) Disassemble func() string",
	"func (*Program) SHA256 func() string",
	"func (Policy) IsPRI func() bool",
	"func (Table) String func() string",
	"func Assemble func(src string) (*Program, error)",
	"func AssembleDiagnostics func(err error) []Diagnostic",
	"func AssembleFile func(name, src string) (*Program, error)",
	"func Benchmarks func() []Benchmark",
	"func ExperimentNames func() []string",
	"func MachineJSON func(o Options) ([]byte, error)",
	"func NewEngine func(opts ...EngineOption) *Engine",
	"func NewProgram func(p *asm.Program) *Program",
	"func Policies func() []Policy",
	"func WithBudget func(fastForward, run uint64) EngineOption",
	"func WithParallelism func(n int) EngineOption",
	"type Benchmark struct",
	"type CacheStats struct",
	"type Diagnostic = asm.Diagnostic",
	"type Engine struct",
	"type EngineOption func(*engineSettings)",
	"type Options struct",
	"type Policy string",
	"type Program struct",
	"type ProgramResult struct",
	"type Result struct",
	"type Table struct",
	"var ErrHalted",
	"var ErrInvalidOptions",
	"var ErrMemLimit",
	"var ErrUnknownBenchmark",
	"var ErrUnknownExperiment",
	"var ErrUnknownPolicy",
	"var Version",
}

// exportedAPI lists the package's exported declarations, one line each, by
// parsing its non-test sources.
func exportedAPI(t *testing.T) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	p := doc.New(pkgs["prisim"], "prisim", 0)
	src := func(n ast.Node) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	var api []string
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, spec := range v.Decl.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					if n.IsExported() {
						api = append(api, kind+" "+n.Name)
					}
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			name := f.Name
			if f.Recv != "" {
				name = "(" + f.Recv + ") " + name
			}
			api = append(api, "func "+name+" "+src(f.Decl.Type))
		}
	}
	values("const", p.Consts)
	values("var", p.Vars)
	funcs(p.Funcs)
	for _, typ := range p.Types {
		spec := typ.Decl.Specs[0].(*ast.TypeSpec)
		st, ok := spec.Type.(*ast.StructType)
		switch {
		case spec.Assign.IsValid():
			api = append(api, "type "+typ.Name+" = "+src(spec.Type))
		case !ok:
			api = append(api, "type "+typ.Name+" "+src(spec.Type))
		default:
			api = append(api, "type "+typ.Name+" struct")
			for _, f := range st.Fields.List {
				if len(f.Names) == 0 {
					api = append(api, "field "+typ.Name+" embedded "+src(f.Type))
				}
				for _, n := range f.Names {
					api = append(api, "field "+typ.Name+"."+n.Name+" "+src(f.Type))
				}
			}
		}
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	sort.Strings(api)
	return api
}

// TestPublicAPI fails when an exported identifier, field or signature of
// package prisim is added, removed or changed. Update publicAPI only for a
// deliberate API change.
func TestPublicAPI(t *testing.T) {
	got := exportedAPI(t)
	want := make(map[string]bool)
	for _, s := range publicAPI {
		want[s] = true
	}
	have := make(map[string]bool)
	for _, s := range got {
		have[s] = true
		if !want[s] {
			t.Errorf("added or changed: %q", s)
		}
	}
	for _, s := range publicAPI {
		if !have[s] {
			t.Errorf("removed or changed: %q", s)
		}
	}
}
