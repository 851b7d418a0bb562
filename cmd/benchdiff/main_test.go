package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func writeReport(t *testing.T, dir, name string, fps, fig1 float64) string {
	t.Helper()
	r := &obs.BenchReport{
		Date: "2026-08-05", Scale: 0.05, Seed: 1, WallSeconds: 20,
		Ingest:    obs.IngestBench{Flows: 1000000, FlowsPerSec: fps, BytesPerSec: 5e8, Seconds: 18, Bytes: 9e9},
		FiguresMS: map[string]float64{"fig1": fig1},
	}
	path := filepath.Join(dir, name)
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchdiff(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", 100000, 10)
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()

	okP := writeReport(t, dir, "ok.json", 97000, 10.4)
	if code, err := run(devnull, oldP, okP, 0.10, 0, ""); err != nil || code != 0 {
		t.Errorf("within-tolerance diff: code %d, err %v", code, err)
	}

	badP := writeReport(t, dir, "bad.json", 70000, 10)
	if code, err := run(devnull, oldP, badP, 0.10, 0, ""); err != nil || code != 1 {
		t.Errorf("regressed diff: code %d, err %v; want 1, nil", code, err)
	}

	if _, err := run(devnull, oldP, filepath.Join(dir, "missing.json"), 0.10, 0, ""); err == nil {
		t.Error("missing report should error")
	}
}

// TestBenchdiffOldBaselineCompat: a baseline written before an optional
// metric existed must diff cleanly against a candidate that has it — the
// metric is skipped, not treated as a regression — and reports carrying
// metrics no longer recorded still load.
func TestBenchdiffOldBaselineCompat(t *testing.T) {
	dir := t.TempDir()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	oldP := writeReport(t, dir, "old.json", 100000, 10)
	sealed := &obs.BenchReport{
		Date: "2026-08-09", Scale: 0.05, Seed: 1, WallSeconds: 20, SealMS: 3,
		Ingest:    obs.IngestBench{Flows: 1000000, FlowsPerSec: 100000, BytesPerSec: 5e8, Seconds: 18, Bytes: 9e9},
		FiguresMS: map[string]float64{"fig1": 10},
	}
	newP := filepath.Join(dir, "new.json")
	if err := sealed.WriteFile(newP); err != nil {
		t.Fatal(err)
	}
	if code, err := run(devnull, oldP, newP, 0.30, 0, ""); err != nil || code != 0 {
		t.Errorf("old baseline vs seal_ms candidate: code %d, err %v; want 0", code, err)
	}
	// Reversed: a seal_ms baseline against a plain candidate also skips.
	if code, err := run(devnull, newP, oldP, 0.99, 0, ""); err != nil || code != 0 {
		t.Errorf("seal_ms baseline vs plain candidate: code %d, err %v; want 0", code, err)
	}

	// A report as older builds wrote it still carries merge_ms, a shard
	// count and the scaling fields, none of them recorded any more: it
	// loads and diffs cleanly both ways.
	mergeP := filepath.Join(dir, "merge.json")
	if err := os.WriteFile(mergeP, []byte(`{
  "date": "2026-10-01", "go_version": "go1.24.0", "goos": "linux", "goarch": "amd64",
  "cpus": 2, "maxprocs": 2, "scale": 0.05, "shards": 4, "seed": 1,
  "wall_seconds": 20,
  "ingest": {"events": 2000000, "flows": 1000000, "bytes": 9000000000, "seconds": 18,
             "flows_per_sec": 100000, "bytes_per_sec": 500000000,
             "snapshot_bytes": 33554432, "scaling_efficiency": 0.5},
  "figures_ms": {"fig1": 10},
  "seal_ms": 0.4,
  "merge_ms": 47.2
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, err := run(devnull, mergeP, oldP, 0.30, 0, ""); err != nil || code != 0 {
		t.Errorf("merge_ms baseline vs current candidate: code %d, err %v; want 0", code, err)
	}
	if code, err := run(devnull, oldP, mergeP, 0.30, 0, ""); err != nil || code != 0 {
		t.Errorf("current baseline vs merge_ms candidate: code %d, err %v; want 0", code, err)
	}
}

// TestBenchdiffFiguresWallCeiling: -max-figures-wall-ms is an absolute
// ceiling on the candidate's figure phase, independent of the baseline;
// candidates without the metric (figures replayed from cache) skip it with
// a note instead of failing.
func TestBenchdiffFiguresWallCeiling(t *testing.T) {
	dir := t.TempDir()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	write := func(name string, wallMS float64) string {
		r := &obs.BenchReport{
			Date: "2026-08-09", Scale: 0.05, Seed: 1, WallSeconds: 20,
			Ingest:        obs.IngestBench{Flows: 1000000, FlowsPerSec: 100000, BytesPerSec: 5e8, Seconds: 18, Bytes: 9e9},
			FiguresMS:     map[string]float64{"fig1": 10},
			FiguresWallMS: wallMS,
		}
		path := filepath.Join(dir, name)
		if err := r.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldP := write("old.json", 120)

	okP := write("ok.json", 130)
	if code, err := run(devnull, oldP, okP, 0.30, 500, ""); err != nil || code != 0 {
		t.Errorf("under ceiling: code %d, err %v; want 0", code, err)
	}

	// Over the ceiling fails even when the relative tolerance would pass.
	slowP := write("slow.json", 900)
	if code, err := run(devnull, oldP, slowP, 9.99, 500, ""); err != nil || code != 1 {
		t.Errorf("over ceiling: code %d, err %v; want 1", code, err)
	}

	// Candidate without the metric (warm figures cache): ceiling skipped.
	plainP := writeReport(t, dir, "plain.json", 100000, 10)
	if code, err := run(devnull, oldP, plainP, 9.99, 500, ""); err != nil || code != 0 {
		t.Errorf("ceiling with no figures_wall_ms: code %d, err %v; want 0", code, err)
	}
}

// TestBenchdiffSummary: the -summary file accumulates a markdown table per
// invocation (append semantics for $GITHUB_STEP_SUMMARY) and flags both
// relative regressions and ceiling failures.
func TestBenchdiffSummary(t *testing.T) {
	dir := t.TempDir()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	sum := filepath.Join(dir, "summary.md")
	oldP := writeReport(t, dir, "old.json", 100000, 10)
	slow := &obs.BenchReport{
		Date: "2026-08-09", Scale: 0.05, Seed: 1, WallSeconds: 20,
		Ingest:        obs.IngestBench{Flows: 1000000, FlowsPerSec: 50000, BytesPerSec: 5e8, Seconds: 18, Bytes: 9e9},
		FiguresMS:     map[string]float64{"fig1": 10},
		FiguresWallMS: 900,
	}
	slowP := filepath.Join(dir, "slow.json")
	if err := slow.WriteFile(slowP); err != nil {
		t.Fatal(err)
	}

	if code, err := run(devnull, oldP, slowP, 0.10, 500, sum); err != nil || code != 1 {
		t.Fatalf("run: code %d, err %v", code, err)
	}
	if code, err := run(devnull, oldP, slowP, 0.99, 0, sum); err != nil || code != 0 {
		t.Fatalf("second run: code %d, err %v", code, err)
	}
	data, err := os.ReadFile(sum)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if n := strings.Count(text, "### benchdiff:"); n != 2 {
		t.Errorf("summary holds %d sections, want 2 (append semantics)", n)
	}
	for _, want := range []string{
		"| metric | old | new | ratio | status |",
		"| ingest.flows_per_sec | 100000.00 | 50000.00 | 0.50x | **REGRESSED** |",
		"CEILING FAILED",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

// TestBenchdiffCacheLine pins the cache line: the probe counters always,
// the content-keying cost only when the report carries it.
func TestBenchdiffCacheLine(t *testing.T) {
	c := &obs.CacheBench{Hits: 1, Misses: 3, Invalidations: 3}
	for _, tc := range []struct {
		r    obs.BenchReport
		want string
	}{
		{obs.BenchReport{Cache: c}, "cache: hits=1 misses=3 invalidations=3 verify_failures=0"},
		{obs.BenchReport{Cache: c, KeyingMS: 41.3, HashedMB: 68.87},
			"cache: hits=1 misses=3 invalidations=3 verify_failures=0 keying_ms=41.3 hashed_mb=68.9"},
	} {
		if got := cacheLine(&tc.r); got != tc.want {
			t.Errorf("cacheLine = %q, want %q", got, tc.want)
		}
	}
}
