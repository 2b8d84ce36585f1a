package prisim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

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
		h := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(h[:]); got != goldenExperiments[name] {
			t.Errorf("%s diverged from golden output:\ngot  %s\nwant %s\n%s", name, got, goldenExperiments[name], out)
		}
	}
}
