package prisim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"prisim/internal/core"
	"prisim/internal/ooo"
	"prisim/internal/workloads"
)

// Golden determinism fingerprints, captured from the kernel before the
// event wheel. The event wheel, dynInst recycling, the intrusive ready
// queue, and the page-translation cache are pure mechanical optimizations:
// every experiment table and every statistic must stay bit-identical. If a
// kernel change legitimately alters timing semantics, recapture with
//
//	go test . -run TestGolden -v
//
// and say so in the commit message.
const (
	goldenFig8Hash = "9bb0c24a2354f18b25ba333e0a3d5c25b4c50711d63c587300a69ef5b9eba2ff"

	goldenGzipBasePRI = "218670e9df333ee5751bd891caebf85040d8fc5d06bca4bb6c3489748aa234ae"
)

var goldenBudget = budget{2000, 8000}

// goldenExperiments pins the rendered output of every experiment at
// WithBudget(300, 1500): a refactor of row assembly, the experiment registry
// or the point grid must leave every table byte-identical. If a kernel change
// legitimately alters timing semantics, recapture with
//
//	go test . -run TestGoldenAllExperiments -v
//
// and say so in the commit message.
var goldenExperiments = map[string]string{
	"table1":            "24ca6148c338a8d20309c3ca476db2c361a1c3c6aa1d1fd3de2bf083a9ade8dc",
	"table2":            "b7c5689817348b4506e48032f0a4b2ef0efbc46887e57997765797d49f0cd8d6",
	"fig1":              "d7529db45d41983d7888b3562f3592776594a82c29a342cd3e5543de4b7bdd49",
	"fig2":              "8518c42487da8a4aa0c6958ec39cbbc9a02921cf81a78c7206c98440aa051a92",
	"fig8":              "6dc70a4c65f578d4c432b15c9fb37a7663dd62229abf9023055dbc180fd337d9",
	"fig9":              "e525954a363a790470e80ac867d8846c24212378c9872f324c538ca81dbf2767",
	"fig10":             "22bf0d02c5afdb9e1f77b47650c4f91dcf3f653f1a81360f4a23f4d1ed55cfc5",
	"fig11":             "793f547810d3005cf6832fb8239d70cebc752879a2cef7a92d9b72e94ed2d309",
	"fig12":             "f2146c349e3dc036dc05b4a379d45039a0af372d9f14a00daa511b311c57060c",
	"ablation-inline":   "579083861cb6eb90f199117a5ab772f3fc9e38d41a814c7588a3880d5961d7ff",
	"ablation-mem":      "05a01f09c5d18c328ca9908c1c0c3f9327c8c4c8b11cf982731b016c6fd34e1c",
	"ablation-delayed":  "1578d87d824792e1646e621bf9a53b8767f763e7079d14c5ba308d6a782eb099",
	"ablation-mshr":     "dc267b744c32383a58cf59c240d7e97c01b10a6621d1a0f88ed6bf6a933e3b29",
	"ablation-prefetch": "2d209e446b9e242074efa97aadaa69358d01b626e5c8e95dd8581d97eb0bf146",
}

func TestGoldenAllExperiments(t *testing.T) {
	eng := NewEngine(WithBudget(300, 1500))
	names := ExperimentNames()
	if len(names) != len(goldenExperiments) {
		t.Errorf("%d experiments, %d golden hashes", len(names), len(goldenExperiments))
	}
	for _, name := range names {
		out, err := eng.Experiment(context.Background(), name, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sha(out); got != goldenExperiments[name] {
			t.Errorf("%s diverged from golden output:\ngot  %s\nwant %s\n%s", name, got, goldenExperiments[name], out)
		}
	}
}

// statsFingerprint renders every counter the simulator accumulates — pipeline
// stats, both register classes' lifetime stats, occupancy, and cache/predictor
// rates — into one canonical string.
func statsFingerprint(p *ooo.Pipeline) string {
	st := p.Stats()
	return fmt.Sprintf("stats=%+v\nint=%+v\nfp=%+v\ndl1=%v l2=%v\n",
		*st, *p.Renamer().IntStats(), *p.Renamer().FPStats(),
		p.Mem().DL1.MissRate(), p.Mem().L2.MissRate())
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// TestGoldenFig8Table regenerates the paper's Figure 8 table serially at a
// fixed budget and asserts the rendered output is bit-identical to the
// recorded pre-rewrite kernel.
func TestGoldenFig8Table(t *testing.T) {
	ts, err := NewEngine(WithBudget(goldenBudget.ff, goldenBudget.run), WithParallelism(1)).fig8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(ts[0].String()); got != goldenFig8Hash {
		t.Errorf("fig8 table diverged from golden kernel output:\ngot  %s\nwant %s\ntable:\n%s",
			got, goldenFig8Hash, ts[0].String())
	}
}

// TestGoldenFullStats runs one benchmark per machine/policy corner and checks
// the complete Stats structs (not just table-rounded values) bit for bit.
func TestGoldenFullStats(t *testing.T) {
	w, ok := workloads.ByName("gzip")
	if !ok {
		t.Fatal("gzip workload missing")
	}
	var fp string
	for _, cfg := range []ooo.Config{
		ooo.Width4(),
		ooo.Width4().WithPolicy(core.PolicyPRIRcCkpt),
		ooo.Width8().WithPolicy(core.PolicyPRIPlusER),
	} {
		p := ooo.New(cfg, w.Build(0))
		p.FastForward(goldenBudget.ff)
		p.Run(goldenBudget.run)
		fp += cfg.Name + "/" + cfg.Rename.Policy.Name() + "\n" + statsFingerprint(p)
	}
	if got := sha(fp); got != goldenGzipBasePRI {
		t.Errorf("full-stats fingerprint diverged from golden kernel output:\ngot  %s\nwant %s\n%s",
			got, goldenGzipBasePRI, fp)
	}
}
