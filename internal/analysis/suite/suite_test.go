package suite

import (
	"testing"

	"github.com/catnap-noc/catnap/internal/analysis"
)

// TestRepoLintClean runs the full analyzer suite over the entire module
// and requires zero diagnostics — the same invocation as `make lint`.
// Fixes and justified //lint:ignore directives must keep the tree clean,
// and the driver's unused-directive error makes any stale ignore fail
// here too.
func TestRepoLintClean(t *testing.T) {
	pkgs, err := analysis.Load("../../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := analysis.Run(pkgs, All())
	if err != nil {
		t.Errorf("driver: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", pkgs[0].Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// TestSuiteComposition pins the analyzer set so adding or dropping a
// check is a conscious edit here.
func TestSuiteComposition(t *testing.T) {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	if len(names) != 2 || names[0] != "nodeterminism" || names[1] != "missingdoc" {
		t.Fatalf("suite is %v, want [nodeterminism missingdoc]", names)
	}
}

// TestAllNamesUnique guards the //lint:ignore namespace: analyzer names
// double as suppression keys and must not collide.
func TestAllNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q incompletely defined", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
