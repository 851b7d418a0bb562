// Command lintlock is the multichecker driver for the repository's custom
// static-analysis suite (internal/analysis). It enforces the invariants
// the reproduction's methodology depends on — the privacy boundary around
// raw identifiers, byte-identical regeneration of results, the obs
// nil-receiver contract, hot-path error handling — and the concurrency
// protocols the parallel ingest path is built on: all-or-nothing atomic
// field access, sync.Pool hygiene and owned goroutines.
//
// Usage:
//
//	lintlock [-select privleak,determinism] [-list] [-json] [-summary file] [packages]
//	lintlock -suppressions [-json] [packages]
//
// Packages default to ./... relative to the current directory. In the
// default mode exit status is 0 when clean, 1 when any diagnostic is
// reported, and 2 on a load or usage error. With -suppressions the tool
// audits //lintlock:ignore directives instead of reporting findings:
// every directive is listed with file:line, analyzer, and justification,
// and the exit status is 1 if any directive is bare (no justification)
// or stale (names an analyzer that is not in the suite).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the machine-readable shape of one diagnostic, emitted by
// -json as an array (never null — a clean run is `[]`).
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonDirective is the machine-readable shape of one //lintlock:ignore
// directive in the -suppressions -json report.
type jsonDirective struct {
	File          string   `json:"file"`
	Line          int      `json:"line"`
	Analyzers     []string `json:"analyzers"`
	Justification string   `json:"justification"`
}

// jsonAudit is the top-level -suppressions -json document.
type jsonAudit struct {
	Directives []jsonDirective `json:"directives"`
	Issues     []jsonFinding   `json:"issues"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lintlock", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	selection := fs.String("select", "", "comma-separated analyzer names to run (default: all)")
	dir := fs.String("C", ".", "directory to run in (module root)")
	audit := fs.Bool("suppressions", false, "audit //lintlock:ignore directives instead of reporting findings")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON on stdout")
	summaryPath := fs.String("summary", "", "append a GitHub-flavored markdown summary to this file (e.g. $GITHUB_STEP_SUMMARY)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := analysis.ByName(*selection)
	if err != nil {
		fmt.Fprintln(stderr, "lintlock:", err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "lintlock:", err)
		return 2
	}

	if *audit {
		return runAudit(res, analyzers, *asJSON, *summaryPath, stdout, stderr)
	}

	diags, err := analysis.Run(res, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "lintlock:", err)
		return 2
	}
	if *asJSON {
		if err := json.NewEncoder(stdout).Encode(toFindings(diags)); err != nil {
			fmt.Fprintln(stderr, "lintlock:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if *summaryPath != "" {
		if err := writeSummary(*summaryPath, len(analyzers), diags); err != nil {
			fmt.Fprintln(stderr, "lintlock:", err)
			return 2
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "lintlock: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// runAudit implements -suppressions: list every directive, then fail if
// any is bare or stale.
func runAudit(res *analysis.Result, analyzers []*analysis.Analyzer, asJSON bool, summaryPath string, stdout, stderr io.Writer) int {
	dirs, issues := analysis.AuditSuppressions(res, analyzers)
	if asJSON {
		doc := jsonAudit{Directives: make([]jsonDirective, 0, len(dirs)), Issues: toFindings(issues)}
		for _, d := range dirs {
			doc.Directives = append(doc.Directives, jsonDirective{
				File:          d.Pos.Filename,
				Line:          d.Pos.Line,
				Analyzers:     d.Analyzers,
				Justification: d.Justification,
			})
		}
		if err := json.NewEncoder(stdout).Encode(doc); err != nil {
			fmt.Fprintln(stderr, "lintlock:", err)
			return 2
		}
	} else {
		for _, d := range dirs {
			fmt.Fprintln(stdout, d)
		}
		for _, d := range issues {
			fmt.Fprintln(stdout, d)
		}
	}
	if summaryPath != "" {
		if err := writeAuditSummary(summaryPath, dirs, issues); err != nil {
			fmt.Fprintln(stderr, "lintlock:", err)
			return 2
		}
	}
	if len(issues) > 0 {
		fmt.Fprintf(stderr, "lintlock: %d suppression issue(s)\n", len(issues))
		return 1
	}
	return 0
}

func toFindings(diags []analysis.Diagnostic) []jsonFinding {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return out
}

// writeSummary appends a GitHub-flavored markdown table of findings —
// appending (not truncating), same as benchdiff's, so several tool
// invocations in one job can share $GITHUB_STEP_SUMMARY.
func writeSummary(path string, nAnalyzers int, diags []analysis.Diagnostic) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if len(diags) == 0 {
		fmt.Fprintf(f, "### lintlock: clean (%d analyzers)\n\n", nAnalyzers)
		return f.Close()
	}
	fmt.Fprintf(f, "### lintlock: %d finding(s)\n\n", len(diags))
	fmt.Fprintln(f, "| location | analyzer | message |")
	fmt.Fprintln(f, "|---|---|---|")
	for _, d := range diags {
		fmt.Fprintf(f, "| %s:%d:%d | %s | %s |\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	fmt.Fprintln(f)
	return f.Close()
}

// writeAuditSummary appends the -suppressions report as a markdown table.
func writeAuditSummary(path string, dirs []analysis.Directive, issues []analysis.Diagnostic) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "### lintlock suppressions: %d directive(s), %d issue(s)\n\n", len(dirs), len(issues))
	if len(dirs) > 0 {
		fmt.Fprintln(f, "| location | analyzers | justification |")
		fmt.Fprintln(f, "|---|---|---|")
		for _, d := range dirs {
			j := d.Justification
			if j == "" {
				j = "**(bare)**"
			}
			fmt.Fprintf(f, "| %s:%d | %s | %s |\n", d.Pos.Filename, d.Pos.Line, strings.Join(d.Analyzers, ","), j)
		}
		fmt.Fprintln(f)
	}
	for _, d := range issues {
		fmt.Fprintf(f, "- **ISSUE:** %s\n", d)
	}
	if len(issues) > 0 {
		fmt.Fprintln(f)
	}
	return f.Close()
}
