package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campus"
	"repro/internal/faultline"
	"repro/internal/logsink"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/universe"
)

// writeRotatedTestLogs generates a small rotated (one directory per day)
// dataset for the per-day checkpoint tests.
func writeRotatedTestLogs(t *testing.T, from, to campus.Day, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.002
	cfg.Seed = seed
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
// The append run's full cache accounting is pinned too, and so is its
// keying line: the digest memo the prefix run wrote vouches for every
// prefix file, so only the new day's files are read.
func TestStatsdayAppendIncremental(t *testing.T) {
	logsDir := writeRotatedTestLogs(t, 40, 46, 1)
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

	waitPastCtime(t, logsDir)
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
	files, size := treeFiles(t, logsDir)
	dayFiles, daySize := treeFiles(t, filepath.Join(logsDir, last))
	statusHas(t, "append", incrStatus, keyingLine(files, dayFiles, daySize, size))

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
	againStatus := runCached(t, again)
	statusHas(t, "unchanged rerun", againStatus, "stats=hit")
	statusHas(t, "unchanged rerun", againStatus, keyingLine(files, 0, 0, size))
	wantIdenticalOutputs(t, "unchanged rerun", readOutputs(t, refDir), readOutputs(t, againDir))
}

// treeFiles counts the regular files under dir and their bytes.
func treeFiles(t *testing.T, dir string) (int, int64) {
	t.Helper()
	var n int
	var size int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n, size = n+1, size+fi.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, size
}

// keyingLine is the status line of a cached run over a tree of files
// whose digest memo vouched for all but hashed files of read bytes. Where
// the memo is inert the run reads the whole tree, size bytes.
func keyingLine(files, hashed int, read, size int64) string {
	if !memoActive {
		hashed, read = files, size
	}
	return fmt.Sprintf("keying: files=%d hashed=%d reused=%d read_mb=%.1f memo=ok",
		files, hashed, files-hashed, float64(read)/(1<<20))
}

// TestStatsdayMidHistoryEdit pins the other half of the chain's contract:
// editing a historical day invalidates its checkpoint and every later one,
// and nothing before it. On a cache grown one day at a time to six days,
// with day 4 replaced by a version that still parses, the rerun must miss
// days 6, 5 and 4, restore day 3's checkpoint and replay three days, with outputs byte-identical to a cache-free run
// over the edited tree. A key chain that paired day i with day i-1's
// content would hit at day 4 and replay two. The bench reports must say
// what the content keying read: the cold first run reads its whole tree,
// and the edit run, whose digest memo vouches for every unchanged file,
// reads exactly the edited day's bytes.
func TestStatsdayMidHistoryEdit(t *testing.T) {
	logsDir := writeRotatedTestLogs(t, 40, 46, 1)
	days, err := logsink.DayDirs(logsDir)
	if err != nil || len(days) != 6 {
		t.Fatalf("day dirs = %v (err %v), want 6 days", days, err)
	}
	base := cacheTestConfig(t, t.TempDir())
	base.Scale = 0.002
	base.Logs = logsDir

	// Grow the cache the way a daily append does, one day per run, so it
	// holds a checkpoint for every day.
	hold := t.TempDir()
	for _, d := range days[1:] {
		if err := os.Rename(filepath.Join(logsDir, d), filepath.Join(hold, d)); err != nil {
			t.Fatal(err)
		}
	}
	cold := filepath.Join(t.TempDir(), "cold.json")
	_, coldSize := treeFiles(t, logsDir)
	for i, d := range days {
		if i > 0 {
			if err := os.Rename(filepath.Join(hold, d), filepath.Join(logsDir, d)); err != nil {
				t.Fatal(err)
			}
		}
		seeded := base
		seeded.Out = t.TempDir()
		if i == 0 {
			seeded.benchJSON = cold
		}
		if i == len(days)-1 {
			// The last seeding run writes the memo the edit run reads.
			waitPastCtime(t, logsDir)
		}
		statusHas(t, "seed "+d, runCached(t, seeded),
			fmt.Sprintf("statsday: days=%d replayed=1 misses=1 hits=%d", i+1, min(i, 1)))
	}

	// Day 4 generated again under another seed: valid logs, other bytes.
	edited := days[3]
	other := writeRotatedTestLogs(t, 43, 44, 2)
	if err := os.RemoveAll(filepath.Join(logsDir, edited)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(other, edited), filepath.Join(logsDir, edited)); err != nil {
		t.Fatal(err)
	}

	incr := base
	incr.Out = t.TempDir()
	incr.benchJSON = filepath.Join(t.TempDir(), "bench.json")
	statusHas(t, "edit", runCached(t, incr), "statsday: days=6 replayed=3 misses=3 hits=1")

	ref := base
	ref.CacheDir = ""
	ref.Out = t.TempDir()
	runCached(t, ref)
	wantIdenticalOutputs(t, "edit vs cache-free", readOutputs(t, ref.Out), readOutputs(t, incr.Out))

	_, editSize := treeFiles(t, filepath.Join(logsDir, edited))
	_, size := treeFiles(t, logsDir)
	if !memoActive {
		editSize = size
	}
	for _, c := range []struct {
		name, path string
		want       int64
	}{{"cold", cold, coldSize}, {"edit", incr.benchJSON, editSize}} {
		br, err := obs.LoadBench(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := br.HashedMB * (1 << 20); got != float64(c.want) {
			t.Errorf("%s run's bench report hashed %.0f bytes, want %d", c.name, got, c.want)
		}
		if br.KeyingMS <= 0 {
			t.Errorf("%s run's bench report keying_ms = %v, want > 0", c.name, br.KeyingMS)
		}
	}
}

// TestStatsdayEligibility pins the gate: the per-day checkpoint path only
// engages for strict-policy replays of a rotated layout, and
// never in generate mode.
func TestStatsdayEligibility(t *testing.T) {
	logsDir := writeRotatedTestLogs(t, 40, 42, 1)
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
		"rotated strict":  {func(*config) {}, true},
		"generate mode":   {func(c *config) { c.Logs = "" }, false},
		"flat layout":     {func(c *config) { c.Logs = flatDir }, false},
		"fault injection": {func(c *config) { c.FaultInject = 0.001 }, false},
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
