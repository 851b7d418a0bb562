package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campus"
	"repro/internal/faultline"
	"repro/internal/logsink"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/universe"
)

// writeRotatedTestLogs generates a small rotated (one directory per day)
// dataset for the per-day checkpoint tests.
func writeRotatedTestLogs(t *testing.T, from, to campus.Day) string {
	t.Helper()
	dir := t.TempDir()
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.002
	g, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := logsink.NewRotatingWriter(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunDays(w, from, to); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStatsdayAppendIncremental is the go-test variant of the CI
// append-smoke walk (scripts/append_smoke.sh): a cached run over a rotated
// dataset's N-1-day prefix seeds one checkpoint per day; after the final
// day appears, the rerun must replay exactly that day (one probe missed at
// the new final key, the next hit the previous run's checkpoint) and still
// emit outputs byte-identical to a cache-free run over the full dataset.
// The append run's full cache accounting is pinned too.
func TestStatsdayAppendIncremental(t *testing.T) {
	logsDir := writeRotatedTestLogs(t, 40, 46)
	days, err := logsink.DayDirs(logsDir)
	if err != nil || len(days) != 6 {
		t.Fatalf("day dirs = %v (err %v), want 6 days", days, err)
	}

	base := cacheTestConfig(t, t.TempDir())
	base.Scale = 0.002
	base.Logs = logsDir

	// Withhold the final day: the prefix run sees a 5-day dataset.
	last := days[len(days)-1]
	hold := filepath.Join(t.TempDir(), last)
	if err := os.Rename(filepath.Join(logsDir, last), hold); err != nil {
		t.Fatal(err)
	}

	prefixDir := t.TempDir()
	prefix := base
	prefix.Out = prefixDir
	prefixStatus := runCached(t, prefix)
	statusHas(t, "prefix", prefixStatus, "statsday: days=5 replayed=5 misses=5 hits=0")

	// The day arrives; only it may be replayed.
	if err := os.Rename(hold, filepath.Join(logsDir, last)); err != nil {
		t.Fatal(err)
	}
	incrDir := t.TempDir()
	incr := base
	incr.Out = incrDir
	incrStatus := runCached(t, incr)
	statusHas(t, "append", incrStatus, "statsday: days=6 replayed=1 misses=1 hits=1")
	// The whole probe sequence, pinned: the stats entry misses (the tree
	// changed), the day-6 checkpoint misses and day 5's hits, and the
	// figures entry misses. Every miss lands on a stage with committed
	// entries, so each is an invalidation. lockbench's traced append repeat
	// holds its own counters to these, so a reordered or added probe fails
	// here first.
	statusHas(t, "append", incrStatus, "hits=1 misses=3 invalidations=3 verify_failures=0 stats=miss figures=miss")

	// Byte identity against a cache-free run over the full dataset.
	refDir := t.TempDir()
	ref := base
	ref.CacheDir = ""
	ref.Out = refDir
	runCached(t, ref)
	wantIdenticalOutputs(t, "append vs cache-free", readOutputs(t, refDir), readOutputs(t, incrDir))

	// An unchanged rerun never reaches the per-day path: the monolithic
	// stats entry written by the append run hits first.
	againDir := t.TempDir()
	again := base
	again.Out = againDir
	statusHas(t, "unchanged rerun", runCached(t, again), "stats=hit")
	wantIdenticalOutputs(t, "unchanged rerun", readOutputs(t, refDir), readOutputs(t, againDir))
}

// TestStatsdayEligibility pins the gate: the per-day checkpoint path only
// engages for single-shard strict-policy replays of a rotated layout, and
// never in generate mode.
func TestStatsdayEligibility(t *testing.T) {
	logsDir := writeRotatedTestLogs(t, 40, 42)
	flatDir := writeTestLogs(t)

	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	base := cacheTestConfig(t, t.TempDir())
	base.Logs = logsDir
	rc, err := runner.OpenCache(base.Config, reg, nil)
	if err != nil {
		t.Fatal(err)
	}

	for name, tc := range map[string]struct {
		mut  func(*config)
		want bool
	}{
		"rotated strict single-shard": {func(*config) {}, true},
		"generate mode":               {func(c *config) { c.Logs = "" }, false},
		"flat layout":                 {func(c *config) { c.Logs = flatDir }, false},
		"sharded":                     {func(c *config) { c.Shards = 4 }, false},
		"fault injection":             {func(c *config) { c.FaultInject = 0.001 }, false},
	} {
		cfg := base
		tc.mut(&cfg)
		if got := runner.StatsdayEligible(cfg.Config, rc, faultline.PolicyStrict); got != tc.want {
			t.Errorf("%s: eligible = %v, want %v", name, got, tc.want)
		}
	}
	if runner.StatsdayEligible(base.Config, rc, faultline.PolicySkip) {
		t.Error("skip policy: eligible, want gated off")
	}
	if runner.StatsdayEligible(base.Config, &runner.Cache{}, faultline.PolicyStrict) {
		t.Error("no cache store: eligible, want gated off")
	}
}
