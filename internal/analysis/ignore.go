package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool // names the directive covers
	line      int             // line the comment itself sits on
	used      bool
}

// ignoreSet indexes a package's ignore directives by file and line.
type ignoreSet struct {
	byFile map[string][]*ignoreDirective
}

const ignorePrefix = "//lint:ignore"

// collectAllIgnores merges every package's ignore directives into one
// set keyed by file, so the stale-ignore sweep runs once over the whole
// run. File paths are unique across packages, so the merge loses
// nothing.
func collectAllIgnores(pkgs []*Package) (ignoreSet, []string) {
	set := ignoreSet{byFile: make(map[string][]*ignoreDirective)}
	var errs []string
	for _, pkg := range pkgs {
		ierrs := collectIgnores(pkg, set)
		errs = append(errs, ierrs...)
	}
	return set, errs
}

// collectIgnores scans every comment in the package for ignore
// directives, appending them into set. Malformed directives (missing
// analyzer name or reason) are returned as error strings so the driver
// can fail loudly instead of silently not suppressing.
func collectIgnores(pkg *Package, set ignoreSet) []string {
	var errs []string
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					errs = append(errs, fmt.Sprintf(
						"%s: malformed ignore directive: want \"//lint:ignore <analyzer> <reason>\"", pos))
					continue
				}
				names := make(map[string]bool)
				for _, n := range strings.Split(fields[0], ",") {
					if n != "" {
						names[n] = true
					}
				}
				d := &ignoreDirective{analyzers: names, line: pos.Line}
				set.byFile[pos.Filename] = append(set.byFile[pos.Filename], d)
			}
		}
	}
	return errs
}

// unused returns one error string per directive that names at least one
// analyzer in the executed set yet suppressed nothing — a stale ignore.
// Directives naming only analyzers outside the run are left alone (a
// partial run must not condemn the full suite's suppressions).
func (s ignoreSet) unused(ran map[string]bool) []string {
	var files []string
	for f := range s.byFile {
		files = append(files, f)
	}
	sort.Strings(files)
	var errs []string
	for _, f := range files {
		for _, d := range s.byFile[f] {
			if d.used {
				continue
			}
			relevant := false
			for n := range d.analyzers {
				if ran[n] {
					relevant = true
					break
				}
			}
			if relevant {
				errs = append(errs, fmt.Sprintf(
					"%s:%d: unused //lint:ignore directive: no diagnostic suppressed; delete it", f, d.line))
			}
		}
	}
	return errs
}

// suppresses reports whether d is covered by an ignore directive on the
// same line or the line immediately above.
func (s ignoreSet) suppresses(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	for _, dir := range s.byFile[pos.Filename] {
		if !dir.analyzers[d.Analyzer] {
			continue
		}
		if dir.line == pos.Line || dir.line == pos.Line-1 {
			dir.used = true
			return true
		}
	}
	return false
}
