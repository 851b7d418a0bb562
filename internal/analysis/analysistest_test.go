package analysis

// A miniature analysistest: fixture packages live under
// testdata/src/<analyzer>/, each directory holding one package that is
// parsed and type-checked standalone (stdlib imports only) under a
// caller-chosen import path — the path is what routes it into or past an
// analyzer's package filter. Expected findings are `// want "substring"`
// comments on the offending line; every diagnostic must match a want on
// its line and every want must be matched.

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	wantRE   = regexp.MustCompile(`//\s*want\s+(.*)$`)
	quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

// loadFixture type-checks the fixture directory as one package named by
// importPath.
func loadFixture(t *testing.T, dir, importPath string) *Result {
	t.Helper()
	loadMu.Lock()
	defer loadMu.Unlock()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	pkg, err := parsePackage(importPath, "", dir, files)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	if err := typecheck(pkg, map[string]*types.Package{}); err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return &Result{Fset: sharedFset, Packages: []*Package{pkg}}
}

// runFixture loads dir as importPath, runs the analyzers, and checks the
// diagnostics against the fixture's want comments.
func runFixture(t *testing.T, dir, importPath string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	res := loadFixture(t, dir, importPath)
	diags, err := Run(res, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	checkWants(t, diags, res.Packages[0])
	return diags
}

// checkWants matches diagnostics against the fixtures' want comments.
func checkWants(t *testing.T, diags []Diagnostic, pkgs ...*Package) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]string)
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	for _, file := range files {
		path := sharedFset.Position(file.Pos()).Filename
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
				k := key{path, i + 1}
				wants[k] = append(wants[k], q[1])
			}
		}
	}

	matched := make(map[key][]bool)
	for k, ws := range wants {
		matched[k] = make([]bool, len(ws))
	}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		ok := false
		for i, w := range wants[k] {
			if !matched[k][i] && (strings.Contains(d.Message, w) || strings.Contains(d.Analyzer, w)) {
				matched[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for i, w := range ws {
			if !matched[k][i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, w)
			}
		}
	}
}

func fixtureDir(elem ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, elem...)...)
}
