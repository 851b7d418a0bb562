// Command benchdiff compares two machine-readable bench reports written by
// `lockdown -bench-json` (BENCH_<date>.json) and exits non-zero when the
// new run regressed beyond the tolerance — the CI gate for the pipeline's
// throughput and per-figure compute times.
//
// Usage:
//
//	benchdiff -old BENCH_2026-08-01.json -new BENCH_2026-08-05.json [-max-regress 0.10]
//	          [-max-figures-wall-ms 500]  absolute ceiling on figures_wall_ms
//	          [-summary summary.md]       also write a markdown summary table
//
// Throughput metrics (flows/sec, bytes/sec) regress by dropping; timing
// metrics (wall seconds, per-figure milliseconds) regress by growing.
// Metrics present in only one report are skipped, so figures can be added
// or retired without breaking the gate against an older baseline.
//
// -max-figures-wall-ms is an absolute ceiling on the candidate's figure
// phase: relative gates drift with their baseline, so the incremental-stats
// contract (figures must stay cheap enough to recompute at every day seal)
// gets a fixed bound instead. Skipped with a note when the candidate report
// lacks figures_wall_ms.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

func main() {
	oldPath := flag.String("old", "", "baseline bench report")
	newPath := flag.String("new", "", "candidate bench report")
	maxRegress := flag.Float64("max-regress", 0.10, "tolerated fractional slowdown (0.10 = 10%)")
	maxFigWallMS := flag.Float64("max-figures-wall-ms", 0, "absolute ceiling on the candidate's figures_wall_ms (0 = no ceiling); skipped when the candidate report lacks the metric")
	summaryPath := flag.String("summary", "", "also write a markdown per-metric summary table to this path (append mode — suitable for $GITHUB_STEP_SUMMARY)")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required")
		os.Exit(2)
	}
	code, err := run(os.Stdout, *oldPath, *newPath, *maxRegress, *maxFigWallMS, *summaryPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(w io.Writer, oldPath, newPath string, maxRegress, maxFigWallMS float64, summaryPath string) (int, error) {
	oldR, err := obs.LoadBench(oldPath)
	if err != nil {
		return 0, err
	}
	newR, err := obs.LoadBench(newPath)
	if err != nil {
		return 0, err
	}
	if oldR.Scale != newR.Scale {
		fmt.Fprintf(w, "note: comparing different configurations (scale %g/%g)\n", oldR.Scale, newR.Scale)
	}
	deltas := obs.CompareBench(oldR, newR, maxRegress)
	if len(deltas) == 0 {
		return 0, fmt.Errorf("reports share no comparable metrics")
	}
	fmt.Fprintf(w, "%-28s %14s %14s %8s\n", "metric", "old", "new", "ratio")
	regressions := 0
	for _, d := range deltas {
		mark := ""
		if d.Regressed {
			mark = "  << REGRESSED"
			regressions++
		}
		fmt.Fprintf(w, "%-28s %14.2f %14.2f %7.2fx%s\n", d.Metric, d.Old, d.New, d.Ratio, mark)
	}

	ceilingFailed := false
	var ceilingNote string
	if maxFigWallMS > 0 {
		switch wall := newR.FiguresWallMS; {
		case wall <= 0:
			ceilingNote = fmt.Sprintf("note: candidate has no figures_wall_ms (figures replayed from cache); ceiling %.0fms not applied", maxFigWallMS)
		case wall > maxFigWallMS:
			ceilingFailed = true
			ceilingNote = fmt.Sprintf("figures_wall_ms %.1f above ceiling %.0fms", wall, maxFigWallMS)
		default:
			ceilingNote = fmt.Sprintf("figures_wall_ms %.1f meets ceiling %.0fms", wall, maxFigWallMS)
		}
		fmt.Fprintln(w, ceilingNote)
	}

	if newR.Cache != nil {
		fmt.Fprintf(w, "%s\n", cacheLine(newR))
	}

	if summaryPath != "" {
		if err := writeSummary(summaryPath, oldR, newR, deltas, ceilingNote, ceilingFailed); err != nil {
			return 0, err
		}
	}

	if regressions > 0 || ceilingFailed {
		if regressions > 0 {
			fmt.Fprintf(w, "\n%d metric(s) regressed beyond %.0f%% (baseline %s, candidate %s)\n",
				regressions, maxRegress*100, oldR.Date, newR.Date)
		}
		return 1, nil
	}
	fmt.Fprintf(w, "\nno regressions beyond %.0f%%\n", maxRegress*100)
	return 0, nil
}

// writeSummary appends a GitHub-flavored markdown table of every compared
// metric — appending (not truncating) so several benchdiff invocations in
// one job can share $GITHUB_STEP_SUMMARY.
func writeSummary(path string, oldR, newR *obs.BenchReport, deltas []obs.BenchDelta, ceilingNote string, ceilingFailed bool) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "### benchdiff: %s vs %s (scale %g)\n\n", oldR.Date, newR.Date, newR.Scale)
	fmt.Fprintln(f, "| metric | old | new | ratio | status |")
	fmt.Fprintln(f, "|---|---:|---:|---:|---|")
	for _, d := range deltas {
		status := "ok"
		if d.Regressed {
			status = "**REGRESSED**"
		}
		fmt.Fprintf(f, "| %s | %.2f | %.2f | %.2fx | %s |\n", d.Metric, d.Old, d.New, d.Ratio, status)
	}
	if ceilingNote != "" {
		if ceilingFailed {
			fmt.Fprintf(f, "\n**CEILING FAILED:** %s\n", ceilingNote)
		} else {
			fmt.Fprintf(f, "\n%s\n", ceilingNote)
		}
	}
	if newR.Cache != nil {
		fmt.Fprintf(f, "\n%s\n", cacheLine(newR))
	}
	fmt.Fprintln(f)
	return f.Close()
}

// cacheLine renders a candidate report's stage-cache accounting and its
// content-keying cost (runs with -cache-dir write them; older reports
// simply lack them).
func cacheLine(r *obs.BenchReport) string {
	c := r.Cache
	line := fmt.Sprintf("cache: hits=%d misses=%d invalidations=%d verify_failures=%d",
		c.Hits, c.Misses, c.Invalidations, c.VerifyFailures)
	if r.KeyingMS > 0 {
		line += fmt.Sprintf(" keying_ms=%.1f", r.KeyingMS)
	}
	if r.HashedMB > 0 {
		line += fmt.Sprintf(" hashed_mb=%.1f", r.HashedMB)
	}
	return line
}
