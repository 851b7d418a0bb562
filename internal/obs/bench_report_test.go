package obs

import (
	"path/filepath"
	"testing"
)

func sampleReport(fps float64, fig1 float64) *BenchReport {
	return &BenchReport{
		Date: "2026-08-05", GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
		CPUs: 8, Scale: 0.05, Seed: 1,
		WallSeconds: 20.5,
		Ingest: IngestBench{
			Events: 2000000, Flows: 1500000, Bytes: 9e9,
			Seconds: 18.2, FlowsPerSec: fps, BytesPerSec: 4.9e8,
		},
		FiguresMS: map[string]float64{"fig1": fig1, "fig5": 2.5, "headline": 11.0},
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := BenchPath(dir, "2026-08-05")
	if want := filepath.Join(dir, "BENCH_2026-08-05.json"); path != want {
		t.Fatalf("BenchPath dir = %q, want %q", path, want)
	}
	if got := BenchPath("custom.json", "2026-08-05"); got != "custom.json" {
		t.Fatalf("BenchPath file = %q", got)
	}
	r := sampleReport(82000, 4.2)
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Ingest.FlowsPerSec != 82000 || r2.FiguresMS["fig1"] != 4.2 || r2.Date != "2026-08-05" {
		t.Errorf("round-trip mismatch: %+v", r2)
	}
}

func TestCompareBench(t *testing.T) {
	old := sampleReport(100000, 10)
	cur := sampleReport(95000, 10.5) // -5% throughput, +5% fig1: within 10%
	deltas := CompareBench(old, cur, 0.10)
	for _, d := range deltas {
		if d.Regressed {
			t.Errorf("%s unexpectedly regressed (ratio %.3f)", d.Metric, d.Ratio)
		}
	}

	cur = sampleReport(80000, 13) // -20% throughput, +30% fig1: both regress
	deltas = CompareBench(old, cur, 0.10)
	regressed := map[string]bool{}
	for _, d := range deltas {
		if d.Regressed {
			regressed[d.Metric] = true
		}
	}
	if !regressed["ingest.flows_per_sec"] || !regressed["figures.fig1"] {
		t.Errorf("expected flows_per_sec and fig1 regressions, got %v", regressed)
	}

	// A figure present only in one report is skipped, not regressed.
	delete(cur.FiguresMS, "fig5")
	for _, d := range CompareBench(old, cur, 0.10) {
		if d.Metric == "figures.fig5" {
			t.Error("fig5 should be skipped when missing from the new report")
		}
	}
}

// TestCompareBenchOldBaselineWithoutEpochFields pins forward compatibility
// of the baseline format: a baseline written before an optional metric
// existed (seal_ms zero after decode) must compare cleanly against a
// current report that carries it — the missing metric is skipped, never
// reported as a regression, and the rest of the comparison still runs.
func TestCompareBenchOldBaselineWithoutEpochFields(t *testing.T) {
	old := sampleReport(100000, 10) // older baseline: zero-valued optional fields
	cur := sampleReport(99000, 10)
	cur.SealMS = 48

	for _, d := range CompareBench(old, cur, 0.10) {
		if d.Metric == "seal_ms" {
			t.Errorf("seal_ms compared against a baseline that lacks it (ratio %.3f)", d.Ratio)
		}
		if d.Regressed {
			t.Errorf("%s unexpectedly regressed (ratio %.3f)", d.Metric, d.Ratio)
		}
	}

	// Once both sides carry the metric it participates like any other: a
	// seal cost that doubles past the threshold regresses.
	old.SealMS = 32
	cur.SealMS = 64
	var saw bool
	for _, d := range CompareBench(old, cur, 0.10) {
		if d.Metric == "seal_ms" {
			saw = true
			if !d.Regressed {
				t.Errorf("doubled seal_ms not flagged (ratio %.3f)", d.Ratio)
			}
		}
	}
	if !saw {
		t.Error("seal_ms missing from comparison when present in both reports")
	}
}

func TestLoadBenchErrors(t *testing.T) {
	if _, err := LoadBench(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := (&BenchReport{}).WriteFile(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBench(bad); err != nil {
		t.Errorf("empty report should still parse: %v", err)
	}
}
