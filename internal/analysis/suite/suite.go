// Package suite assembles catnap's full analyzer set in one place, so
// cmd/catnap-lint and the repo-wide lint-clean test run exactly the same
// checks.
package suite

import (
	"github.com/catnap-noc/catnap/internal/analysis"
	"github.com/catnap-noc/catnap/internal/analysis/missingdoc"
	"github.com/catnap-noc/catnap/internal/analysis/nodeterminism"
)

// All returns every analyzer in the suite, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nodeterminism.Analyzer,
		missingdoc.Analyzer,
	}
}
