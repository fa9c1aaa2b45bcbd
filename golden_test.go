package catnap

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// update rewrites the golden files from the current tree:
//
//	go test -run Golden -update .
var update = flag.Bool("update", false, "rewrite testdata/golden from the current tree")

// goldenOpts is the reduced scale every golden is captured at: short
// enough that all registry experiments run in a few seconds, long enough
// that every figure's points see warmed-up traffic.
var goldenOpts = ExperimentOpts{
	Scale:   Scale{Warmup: 100, Measure: 300},
	Loads:   []float64{0.05, 0.30},
	Total:   600,
	Explore: ExploreOpts{Budget: 8, Batch: 4},
	Sweep:   SweepOptions{Jobs: 2},
}

// checkGolden compares got against testdata/golden/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update .` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// marshalGolden is json.Marshal with indentation, so a drift diffs line
// by line; number formatting is exactly json.Marshal's.
func marshalGolden(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// exploreWall matches the wall time in the explore note, the one part of
// a rendered table that varies from run to run.
var exploreWall = regexp.MustCompile(`rounds \([^)]*\)`)

// renderGolden renders res as `catnap <name> -csv` prints it: the header
// and rows joined by commas, then a blank line and the note, if any.
func renderGolden(res *ExperimentResult) []byte {
	var b strings.Builder
	b.WriteString(strings.Join(res.Header, ",") + "\n")
	for _, r := range res.Rows {
		b.WriteString(strings.Join(r, ",") + "\n")
	}
	if res.Note != "" {
		b.WriteString("\n" + res.Note + "\n")
	}
	return []byte(exploreWall.ReplaceAllString(b.String(), "rounds (<wall>)"))
}

// checkGoldenExperiment runs registry experiment name at goldenOpts and
// compares its typed result with testdata/golden/<name>.json and its
// rendered table with testdata/golden/<name>.csv.
func checkGoldenExperiment(t *testing.T, name string) {
	t.Helper()
	res, err := RunExperiment(context.Background(), name, goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != name {
		t.Errorf("result named %q, want %q", res.Name, name)
	}
	checkGolden(t, name+".json", marshalGolden(t, res.Data))
	checkGolden(t, name+".csv", renderGolden(res))
	if r, ok := res.Data.(*ExploreResult); ok {
		// The front's fields are unexported, so Data marshals it as {}:
		// pin its own serialization as well.
		var buf bytes.Buffer
		if err := r.WriteFront(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name+"-front.json", buf.Bytes())
	}
}

// TestGoldenExperiments pins every registry experiment's typed result at
// reduced scale, except the ablation studies, which TestGoldenAblations
// pins. A change that only restructures code must leave every file
// byte-identical.
func TestGoldenExperiments(t *testing.T) {
	for _, name := range ExperimentNames() {
		if strings.HasPrefix(name, "ablation-") {
			continue
		}
		t.Run(name, func(t *testing.T) { checkGoldenExperiment(t, name) })
	}
}

// TestGoldenAblations pins every ablation study, run as its
// "ablation-<study>" registry experiment, at the same scale.
func TestGoldenAblations(t *testing.T) {
	for _, study := range AblationStudies {
		t.Run(study.Name, func(t *testing.T) { checkGoldenExperiment(t, "ablation-"+study.Name) })
	}
}
