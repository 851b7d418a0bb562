package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// IngestBench summarizes the streaming ingest phase of one harness run.
type IngestBench struct {
	Events      int64   `json:"events"`
	Flows       int64   `json:"flows"`
	Bytes       int64   `json:"bytes"`
	Seconds     float64 `json:"seconds"`
	FlowsPerSec float64 `json:"flows_per_sec"`
	BytesPerSec float64 `json:"bytes_per_sec"`
}

// CacheBench summarizes the stage cache's accounting for one run (runs
// with -cache-dir only; omitted otherwise).
type CacheBench struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Invalidations  int64 `json:"invalidations,omitempty"`
	VerifyFailures int64 `json:"verify_failures,omitempty"`
}

// BenchReport is the machine-readable record one `cmd/lockdown -bench-json`
// run writes (BENCH_<date>.json). CI archives these and diffs consecutive
// runs with cmd/benchdiff to catch throughput and per-figure regressions.
type BenchReport struct {
	Date      string `json:"date"` // YYYY-MM-DD (UTC)
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// MaxProcs is runtime.GOMAXPROCS at run time — the parallelism the run
	// actually had, as opposed to CPUs (the machine's count). Zero in
	// reports written before the field existed.
	MaxProcs int     `json:"maxprocs,omitempty"`
	Scale    float64 `json:"scale"`
	Seed     int64   `json:"seed"`

	WallSeconds float64     `json:"wall_seconds"`
	Ingest      IngestBench `json:"ingest"`
	// FiguresMS maps each figure/experiment name to its compute time; the
	// entries sum to roughly the serial cost. FiguresWallMS is what the
	// run actually paid for the figure phase — smaller than the sum when
	// the parallel finalization pool overlaps figures on spare cores.
	FiguresMS     map[string]float64 `json:"figures_ms"`
	FiguresWallMS float64            `json:"figures_wall_ms,omitempty"`
	// SealMS is the total cost of the per-day seals. Written by runs that
	// take the per-day checkpoint path (-cache-dir over a rotated dataset);
	// omitted otherwise, with the usual ≤0-skip baseline compatibility.
	SealMS float64 `json:"seal_ms,omitempty"`
	// KeyingMS is the content-keying layer's wall time and HashedMB the
	// part of the replayed tree it read, in MiB: the files the digest
	// memo could not vouch for (runs with -cache-dir; HashedMB only with
	// -logs). They sit beside Cache rather than in it: lockbench's
	// traced append compares a whole CacheBench against its own probe
	// counters. Neither is gated.
	KeyingMS float64         `json:"keying_ms,omitempty"`
	HashedMB float64         `json:"hashed_mb,omitempty"`
	Stages   []StageSnapshot `json:"stages,omitempty"`
	// Cache is the stage-cache accounting (runs with -cache-dir only).
	Cache *CacheBench `json:"cache,omitempty"`
}

// BenchPath resolves where a bench report lands: a path ending in .json is
// used verbatim; anything else is treated as a directory receiving
// BENCH_<date>.json.
func BenchPath(arg, date string) string {
	if strings.HasSuffix(arg, ".json") {
		return arg
	}
	return filepath.Join(arg, "BENCH_"+date+".json")
}

// WriteFile writes the report as indented JSON.
func (r *BenchReport) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	return os.WriteFile(path, enc, 0o644)
}

// LoadBench reads a report written by WriteFile.
func LoadBench(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: parse %s: %w", path, err)
	}
	return &r, nil
}

// BenchDelta is one compared metric. Ratio is new/old; for throughput
// higher is better, for timings lower is better — Regressed folds the
// direction in.
type BenchDelta struct {
	Metric    string
	Old, New  float64
	Ratio     float64
	Regressed bool
}

// CompareBench diffs two reports (old baseline vs cur run). maxRegress is the tolerated fractional
// slowdown (0.10 = 10%): throughput may drop and timings may grow by at
// most that factor before a delta is marked regressed. Metrics present in
// only one report are skipped (figures come and go across PRs).
func CompareBench(old, cur *BenchReport, maxRegress float64) []BenchDelta {
	var out []BenchDelta
	compare := func(metric string, o, n float64, higherBetter bool) {
		if o <= 0 || n <= 0 {
			return
		}
		d := BenchDelta{Metric: metric, Old: o, New: n, Ratio: n / o}
		if higherBetter {
			d.Regressed = d.Ratio < 1-maxRegress
		} else {
			d.Regressed = d.Ratio > 1+maxRegress
		}
		out = append(out, d)
	}
	compare("ingest.flows_per_sec", old.Ingest.FlowsPerSec, cur.Ingest.FlowsPerSec, true)
	compare("ingest.bytes_per_sec", old.Ingest.BytesPerSec, cur.Ingest.BytesPerSec, true)
	compare("wall_seconds", old.WallSeconds, cur.WallSeconds, false)
	compare("figures_wall_ms", old.FiguresWallMS, cur.FiguresWallMS, false)
	compare("seal_ms", old.SealMS, cur.SealMS, false)
	var figs []string
	for name := range old.FiguresMS {
		if _, ok := cur.FiguresMS[name]; ok {
			figs = append(figs, name)
		}
	}
	sort.Strings(figs)
	for _, name := range figs {
		compare("figures."+name, old.FiguresMS[name], cur.FiguresMS[name], false)
	}
	return out
}
