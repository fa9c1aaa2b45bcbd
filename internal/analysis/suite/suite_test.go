package suite

import (
	"strings"
	"testing"

	"github.com/catnap-noc/catnap/internal/analysis"
)

// TestRepoLintClean runs the full analyzer suite over the entire module
// and requires zero diagnostics — the same invocation as `make lint`.
// The simulator's annotations, fixes, and justified //lint:ignore
// directives must keep the tree clean, and the driver's unused-directive
// error makes any stale ignore fail here too.
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

// TestSuiteComposition pins the analyzer count so adding or dropping a
// check is a conscious edit here, and verifies contractflow is wired in
// as the suite's module analyzer.
func TestSuiteComposition(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("suite has %d analyzers, want 5: %v", len(all), Names())
	}
	var module int
	for _, a := range all {
		if a.RunModule != nil {
			module++
			if a.Name != "contractflow" {
				t.Errorf("unexpected module analyzer %q", a.Name)
			}
		}
	}
	if module != 1 {
		t.Errorf("suite has %d module analyzers, want 1 (contractflow)", module)
	}
}

// TestByName checks suite selection used by catnap-lint -checks.
func TestByName(t *testing.T) {
	got, err := ByName([]string{"missingdoc", "nodeterminism"})
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if len(got) != 2 || got[0].Name != "missingdoc" || got[1].Name != "nodeterminism" {
		t.Fatalf("ByName returned %v", got)
	}

	if _, err := ByName([]string{"nodeterminism", "nope"}); err == nil {
		t.Fatal("ByName accepted an unknown analyzer name")
	} else {
		// The error must list every valid name, sorted, so -checks typos
		// are self-correcting from the CLI output alone.
		for _, name := range Names() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("unknown-name error %q does not list %q", err, name)
			}
		}
	}

	if _, err := ByName([]string{"missingdoc", "missingdoc"}); err == nil {
		t.Fatal("ByName accepted a duplicate analyzer name")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate-name error %q does not say duplicate", err)
	}
}

// TestNamesSorted guards the order ByName's unknown-name error lists
// analyzers in: sorted, so the CLI message is stable and scannable.
func TestNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not strictly sorted: %v", names)
		}
	}
}

// TestAllNamesUnique guards the //lint:ignore namespace: analyzer names
// double as suppression keys and must not collide. Every analyzer must
// define exactly one of Run (per-package) and RunModule (whole-module).
func TestAllNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %q incompletely defined", a.Name)
		}
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %q must define exactly one of Run and RunModule", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
