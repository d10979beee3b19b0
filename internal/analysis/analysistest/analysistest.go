// Package analysistest runs one kyrix-vet analyzer over a testdata
// package and checks its findings against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the stdlib-only
// framework in internal/analysis.
//
// Expectations are written on the flagged line:
//
//	return c.n // want `guarded by mu`
//
// Each backquoted or double-quoted string after "want" is a regular
// expression that must match exactly one finding reported on that
// line; findings on lines without a matching want, and wants without a
// finding, both fail the test. Suppression directives are honored
// before matching, so a //lint:ignore-kyrix'd line wants nothing. Want
// comments are removed before the analyzer runs: they are expectations,
// not comments of the code under test.
package analysistest

import (
	"fmt"
	"go/ast"
	"regexp"
	"testing"

	"kyrix/internal/analysis"
)

var wantRe = regexp.MustCompile("//[ \t]*want((?:[ \t]+(?:`[^`]*`|\"[^\"]*\"))+)")
var wantArgRe = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads the package rooted at dir (usually testdata/src/<name>),
// applies the analyzer, and diffs findings against want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkgs, err := analysis.Load(dir, ".")
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("load %s: got %d packages, want 1", dir, len(pkgs))
	}
	pkg := pkgs[0]

	// key: file:line
	wants := make(map[string][]*expectation)
	for _, file := range pkg.Files {
		var kept []*ast.CommentGroup
		for _, cg := range file.Comments {
			rest := &ast.CommentGroup{}
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					rest.List = append(rest.List, c)
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, arg := range wantArgRe.FindAllString(m[1], -1) {
					re, err := regexp.Compile(arg[1 : len(arg)-1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %s: %v", key, arg, err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
			if len(rest.List) > 0 {
				kept = append(kept, rest)
			}
		}
		file.Comments = kept
	}
	findings, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, dir, err)
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, exp := range wants[key] {
			if !exp.matched && exp.re.MatchString(f.Message) {
				exp.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s: %s", key, f.Message)
		}
	}
	for key, exps := range wants {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s: expected finding matching %q, got none", key, exp.re)
			}
		}
	}
}
