// Package analysis is a self-contained static-analysis suite that machine-
// checks the two invariants the reproduction's methodology rests on:
//
//   - privacy: raw device/client identifiers (MACs, IPs, DHCP leases) never
//     cross into analysis packages without passing through
//     internal/anonymize (the §3 IRB protocol);
//   - determinism: the results path stays reproducible — no wall-clock
//     reads, no process-seeded randomness, no map-iteration order leaking
//     into figure output.
//
// Plus two robustness checks: the nil-receiver guard on internal/obs
// handle types (the zero-alloc disabled path) and unchecked errors on the
// ingest hot path.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic) but is built only on the standard
// library (go/ast, go/types, go/importer), so the module stays
// dependency-free. cmd/lintlock is the multichecker driver; `make lint`
// and the lint-custom CI job run it over ./... .
//
// # Suppressing a finding
//
// A diagnostic can be silenced with a justification comment on the same
// line or the line immediately above:
//
//	//lintlock:ignore determinism bench timestamps are wall-clock by design
//	stamp := time.Now()
//
// The first word after "ignore" is the analyzer name (comma-separated for
// several, or "all"); everything after it is the justification, which is
// mandatory — a bare ignore directive is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant it guards.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the conventional file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	report func(Diagnostic)
}

// Files returns the package's parsed syntax trees.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Path returns the package's import path.
func (p *Pass) Path() string { return p.Pkg.ImportPath }

// TypesInfo returns the package's type-checking results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// TypeOf returns the type of e, or nil if not recorded.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object denoted by id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// Reportf records a finding at pos unless an ignore directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Pkg.suppressed(position, p.Analyzer.Name) {
		return
	}
	p.report(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in the order diagnostics are grouped:
// the methodology invariants (privacy, determinism), the robustness checks
// (obs nil guard, hot-path errors), then the concurrency-protocol family
// (atomic access discipline, goroutine ownership).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		PrivLeak, Determinism, ObsNil, ErrPath,
		AtomicOnly, GoroutineOwner,
	}
}

// ByName resolves a comma-separated analyzer selection against the suite.
func ByName(selection string) ([]*Analyzer, error) {
	all := Analyzers()
	if selection == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*Analyzer
	for _, name := range strings.Split(selection, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, names(all))
		}
		picked = append(picked, a)
	}
	return picked, nil
}

func names(as []*Analyzer) string {
	ns := make([]string, len(as))
	for i, a := range as {
		ns[i] = a.Name
	}
	return strings.Join(ns, ", ")
}

// Run applies the analyzers to every loaded package and returns the
// surviving diagnostics sorted by position. Malformed ignore directives
// are reported alongside analyzer findings.
func Run(res *Result, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range res.Packages {
		diags = append(diags, pkg.directiveIssues...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     res.Fset,
				Pkg:      pkg,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// pathMatches reports whether an import path equals one of the suffix
// patterns or ends in "/"+pattern. Suffix matching keeps the analyzer
// configs meaningful for both this module ("repro/internal/flow") and the
// test fixture modules ("badmod/internal/flow").
func pathMatches(path string, patterns []string) bool {
	for _, pat := range patterns {
		if path == pat || strings.HasSuffix(path, "/"+pat) {
			return true
		}
	}
	return false
}
