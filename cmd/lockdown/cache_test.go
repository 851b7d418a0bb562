package main

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/logsink"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stagecache"
	"repro/internal/trace"
	"repro/internal/universe"
)

var cacheTestKey = []byte("cache-parity-key-0123456789abcdef")

func cacheTestConfig(t *testing.T, cacheDir string) config {
	t.Helper()
	scale := 0.05
	if testing.Short() {
		scale = 0.01
	}
	return config{
		Config: runner.Config{
			Scale:    scale,
			Seed:     1,
			Key:      cacheTestKey,
			CacheDir: cacheDir,
		},
		quiet:   true,
		statusW: io.Discard,
	}
}

// runCached runs the harness with status capture and returns the status
// transcript.
func runCached(t *testing.T, cfg config) string {
	t.Helper()
	var status bytes.Buffer
	cfg.statusW = &status
	if err := run(cfg); err != nil {
		t.Fatalf("run: %v\nstatus:\n%s", err, status.String())
	}
	return status.String()
}

// readOutputs loads every artifact the harness writes (figure CSVs +
// report) keyed by name.
func readOutputs(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, name := range runner.ArtifactNames() {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
		out[name] = b
	}
	if len(out) < 11 {
		t.Fatalf("only %d artifacts, expected every figure + report", len(out))
	}
	return out
}

func wantIdenticalOutputs(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	for name, w := range want {
		if !bytes.Equal(w, got[name]) {
			t.Errorf("%s: %s differs from the cold run", label, name)
		}
	}
}

func statusHas(t *testing.T, label, status, frag string) {
	t.Helper()
	if !strings.Contains(status, frag) {
		t.Errorf("%s: status missing %q:\n%s", label, frag, status)
	}
}

// TestCacheColdWarmPartialParity is the stage cache's acceptance walk: a
// cold run populates the cache; a warm run hits every stage and must be
// byte-identical; and a run whose figures entry was lost reuses the cached
// stats, recomputes only figures, and still produces identical bytes.
func TestCacheColdWarmPartialParity(t *testing.T) {
	cacheDir := t.TempDir()
	base := cacheTestConfig(t, cacheDir)

	coldDir := t.TempDir()
	cold := base
	cold.Out = coldDir
	coldStatus := runCached(t, cold)
	statusHas(t, "cold", coldStatus, "stats=miss figures=miss")
	want := readOutputs(t, coldDir)

	warmDir := t.TempDir()
	benchPath := filepath.Join(t.TempDir(), "bench.json")
	warm := base
	warm.Out = warmDir
	warm.benchJSON = benchPath
	warmStatus := runCached(t, warm)
	statusHas(t, "warm", warmStatus, "stats=hit figures=hit")
	statusHas(t, "warm", warmStatus, "replayed from stats cache")
	wantIdenticalOutputs(t, "warm full-hit", want, readOutputs(t, warmDir))

	// The bench report carries the cache counters (hit counters are the
	// proof the stages were skipped, not recomputed), and a replayed run
	// must not report a fake ingest throughput.
	br, err := obs.LoadBench(benchPath)
	if err != nil {
		t.Fatalf("bench report: %v", err)
	}
	if br.Cache == nil || br.Cache.Hits != 2 || br.Cache.Misses != 0 {
		t.Errorf("warm bench cache section = %+v, want 2 hits 0 misses", br.Cache)
	}
	if br.Ingest.FlowsPerSec != 0 {
		t.Errorf("warm run reports ingest throughput %v from cached stats", br.Ingest.FlowsPerSec)
	}

	if err := os.RemoveAll(filepath.Join(cacheDir, "figures")); err != nil {
		t.Fatal(err)
	}
	partialDir := t.TempDir()
	partial := base
	partial.Out = partialDir
	partialStatus := runCached(t, partial)
	statusHas(t, "lost figures entry", partialStatus, "stats=hit figures=miss")
	wantIdenticalOutputs(t, "lost figures entry", want, readOutputs(t, partialDir))

	// And the recomputed figures entry is cached again.
	againDir := t.TempDir()
	again := partial
	again.Out = againDir
	statusHas(t, "figures rerun", runCached(t, again), "stats=hit figures=hit")
}

// TestCacheCorruptionRecovery damages cached stats payloads after a cold
// run and requires the next run to detect the damage (verify-failure
// counters), silently recompute, and emit byte-identical outputs — a
// corrupt cache may cost time, never results.
func TestCacheCorruptionRecovery(t *testing.T) {
	cacheDir := t.TempDir()
	base := cacheTestConfig(t, cacheDir)

	coldDir := t.TempDir()
	cold := base
	cold.Out = coldDir
	runCached(t, cold)
	want := readOutputs(t, coldDir)

	// Find the stats entry's dataset payload and flip one bit.
	matches, err := filepath.Glob(filepath.Join(cacheDir, "stats", "*", "dataset.bin"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("stats entries = %v (err %v), want exactly one", matches, err)
	}
	payload := matches[0]
	b, err := os.ReadFile(payload)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x10
	if err := os.WriteFile(payload, b, 0o644); err != nil {
		t.Fatal(err)
	}

	recoverDir := t.TempDir()
	rec := base
	rec.Out = recoverDir
	status := runCached(t, rec)
	statusHas(t, "recovery", status, "stats=miss")
	statusHas(t, "recovery", status, "verify_failures=1")
	wantIdenticalOutputs(t, "recovery", want, readOutputs(t, recoverDir))

	// The recompute healed the entry: the next run is a clean full hit.
	healDir := t.TempDir()
	heal := base
	heal.Out = healDir
	healStatus := runCached(t, heal)
	statusHas(t, "healed", healStatus, "stats=hit figures=hit")
	statusHas(t, "healed", healStatus, "verify_failures=0")
	wantIdenticalOutputs(t, "healed", want, readOutputs(t, healDir))

	// Manifest damage is caught the same way.
	manifests, err := filepath.Glob(filepath.Join(cacheDir, "figures", "*", "manifest.json"))
	if err != nil || len(manifests) == 0 {
		t.Fatalf("no figures manifests (err %v)", err)
	}
	if err := os.WriteFile(manifests[0], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	manifestDir := t.TempDir()
	man := base
	man.Out = manifestDir
	manStatus := runCached(t, man)
	statusHas(t, "manifest damage", manStatus, "verify_failures=1")
	wantIdenticalOutputs(t, "manifest damage", want, readOutputs(t, manifestDir))
}

// TestCacheCountersOneSource checks that every reader of the cache
// accounting sees the same registered cells: the store's own Counters
// (rendered in the "cache:" status line), the bench report's cache block,
// and the expvar "obs" variable's counters object. The probed run is set
// up so all four counters are nonzero: the main stats entry hits, the
// damaged counterfactual entry fails verification, and the -yoy figures
// entry is gone while the figures entry of a run without -yoy is the
// stage's latest, so its miss is an invalidation.
func TestCacheCountersOneSource(t *testing.T) {
	cacheDir := t.TempDir()
	base := cacheTestConfig(t, cacheDir)
	base.Scale = 0.002
	base.Yoy = true

	cold := base
	cold.Out = t.TempDir()
	runCached(t, cold)
	if err := os.RemoveAll(filepath.Join(cacheDir, "figures")); err != nil {
		t.Fatal(err)
	}
	noYoy := base
	noYoy.Yoy = false
	noYoy.Out = t.TempDir()
	statusHas(t, "run without -yoy", runCached(t, noYoy), "stats=hit figures=miss")

	// The counterfactual entry is the stats entry without a truth payload.
	entries, err := filepath.Glob(filepath.Join(cacheDir, "stats", "*", "dataset.bin"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("stats entries = %v (err %v), want two", entries, err)
	}
	var damaged int
	for _, payload := range entries {
		if _, err := os.Stat(filepath.Join(filepath.Dir(payload), "truth.bin")); err == nil {
			continue
		}
		b, err := os.ReadFile(payload)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x01
		if err := os.WriteFile(payload, b, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged != 1 {
		t.Fatalf("damaged %d counterfactual entries, want 1", damaged)
	}

	probe := base
	probe.Out = t.TempDir()
	probe.debugAddr = "127.0.0.1:0"
	probe.benchJSON = filepath.Join(t.TempDir(), "bench.json")
	status := runCached(t, probe)
	br, err := obs.LoadBench(probe.benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	want := obs.CacheBench{Hits: 1, Misses: 2, Invalidations: 1, VerifyFailures: 1}
	if br.Cache == nil || *br.Cache != want {
		t.Fatalf("bench cache block = %+v, want %+v", br.Cache, want)
	}
	statusHas(t, "store counters", status, fmt.Sprintf("hits=%d misses=%d invalidations=%d verify_failures=%d",
		want.Hits, want.Misses, want.Invalidations, want.VerifyFailures))
	var served struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(expvar.Get("obs").String()), &served); err != nil {
		t.Fatal(err)
	}
	got := obs.CacheBench{
		Hits:           served.Counters["cache_hits"],
		Misses:         served.Counters["cache_misses"],
		Invalidations:  served.Counters["cache_invalidations"],
		VerifyFailures: served.Counters["cache_verify_failures"],
	}
	if got != want {
		t.Errorf("expvar obs.counters cache cells = %+v, want %+v", got, want)
	}
}

// TestCacheRandomKeyStaysOff pins the privacy interlock: without a fixed
// -key the pseudonyms in a cached dataset are unlinkable, so the cache
// must refuse to engage (with a visible note) rather than serve
// meaningless reuse.
func TestCacheRandomKeyStaysOff(t *testing.T) {
	cfg := cacheTestConfig(t, t.TempDir())
	cfg.Scale = 0.002
	cfg.Key = nil
	cfg.Out = t.TempDir()
	status := runCached(t, cfg)
	statusHas(t, "random key", status, "cache: disabled: -key required")
	if strings.Contains(status, "stats=") {
		t.Errorf("cache engaged without a fixed key:\n%s", status)
	}
}

// TestFaultGuardLineAlwaysPrinted is the regression fix that rode along
// with caching: every -logs replay must end with a fault-guard audit line,
// including a replay that offered zero events to the guard because the
// whole stats stage was served from cache — silence is indistinguishable
// from "the guard never ran".
func TestFaultGuardLineAlwaysPrinted(t *testing.T) {
	logsDir := writeTestLogs(t)
	cacheDir := t.TempDir()
	base := cacheTestConfig(t, cacheDir)
	base.Logs = logsDir

	coldDir := t.TempDir()
	cold := base
	cold.Out = coldDir
	coldStatus := runCached(t, cold)
	statusHas(t, "cold replay", coldStatus, "fault guard: policy=strict offered=")
	if strings.Contains(coldStatus, "offered=0") {
		t.Errorf("cold replay offered no events to the guard:\n%s", coldStatus)
	}

	warmDir := t.TempDir()
	warm := base
	warm.Out = warmDir
	warmStatus := runCached(t, warm)
	statusHas(t, "warm replay", warmStatus, "stats=hit")
	statusHas(t, "warm replay", warmStatus, "fault guard: policy=strict offered=0 accepted=0 dropped=0 []")
	wantIdenticalOutputs(t, "warm replay", readOutputs(t, coldDir), readOutputs(t, warmDir))
}

// writeTestLogs generates a small Zeek-style log directory for replay
// tests (narrow window, tiny scale — replay cost, not coverage, is the
// point here).
func writeTestLogs(t *testing.T) string {
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
	w, err := logsink.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunDays(w, 40, 45); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStageKeySensitivity drives the stats and figures key derivations
// across the config surface, table-style: every knob that can move an
// output byte must move its stage key, and the deliberate exclusions
// (output paths, observability) must not.
func TestStageKeySensitivity(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewMetrics()
	base := cacheTestConfig(t, t.TempDir())
	rc, err := runner.OpenCache(base.Config, reg, metrics)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Store == nil {
		t.Fatalf("cache did not engage: %s", rc.Note)
	}

	logsDigest := stagecache.Digest(strings.Repeat("a", 64))
	statsKeyOf := func(mut func(*config)) stagecache.Digest {
		cfg := base
		mut(&cfg)
		return rc.StatsKey(cfg.Config, "", false)
	}
	baseStats := statsKeyOf(func(*config) {})

	mustMove := map[string]func(*config){
		"scale": func(c *config) { c.Scale = 0.051 },
		"seed":  func(c *config) { c.Seed = 2 },
		"key":   func(c *config) { c.Key = append([]byte{}, bytes.ToUpper(cacheTestKey)...) },
	}
	for name, mut := range mustMove {
		if statsKeyOf(mut) == baseStats {
			t.Errorf("stats key ignores %s", name)
		}
	}
	mustNotMove := map[string]func(*config){
		"out":       func(c *config) { c.Out = "elsewhere" },
		"quiet":     func(c *config) { c.quiet = false },
		"progress":  func(c *config) { c.progressEvery = 1; c.progressFormat = "json" },
		"bench":     func(c *config) { c.benchJSON = "bench.json" },
		"cache-dir": func(c *config) { c.CacheDir = "other" },
		"fault knobs (generate mode)": func(c *config) {
			c.FaultPolicy = "skip"
			c.FaultInject = 0.5
		},
	}
	for name, mut := range mustNotMove {
		if statsKeyOf(mut) != baseStats {
			t.Errorf("stats key moves with %s, which cannot change stats bytes", name)
		}
	}

	// Source mode and the replayed tree are key material.
	if rc.StatsKey(base.Config, logsDigest, false) == baseStats {
		t.Error("stats key ignores the logs source")
	}
	if rc.StatsKey(base.Config, stagecache.Digest(strings.Repeat("b", 64)), false) == rc.StatsKey(base.Config, logsDigest, false) {
		t.Error("stats key ignores the replayed dataset digest")
	}
	if rc.StatsKey(base.Config, "", true) == baseStats {
		t.Error("stats key ignores the counterfactual (no-pandemic) world")
	}
	// In logs mode every fault knob shapes which records survive replay.
	logsBase := rc.StatsKey(base.Config, logsDigest, false)
	for name, mut := range map[string]func(*config){
		"fault-policy": func(c *config) { c.FaultPolicy = "skip" },
		"fault-budget": func(c *config) { c.FaultBudget = 0.25 },
		"fault-inject": func(c *config) { c.FaultInject = 0.01 },
		"fault-seed":   func(c *config) { c.FaultSeed = 9 },
	} {
		cfg := base
		mut(&cfg)
		if rc.StatsKey(cfg.Config, logsDigest, false) == logsBase {
			t.Errorf("logs-mode stats key ignores %s", name)
		}
	}

	dsD := stagecache.Digest(strings.Repeat("c", 64))
	truthD := stagecache.Digest(strings.Repeat("d", 64))
	figKeyOf := func(mut func(*config)) stagecache.Digest {
		cfg := base
		mut(&cfg)
		return rc.FiguresKey(cfg.Config, dsD, truthD, "")
	}
	baseFig := figKeyOf(func(*config) {})
	if figKeyOf(func(c *config) { c.Out = "elsewhere" }) != baseFig {
		t.Error("figures key moves with the output directory")
	}
	if rc.FiguresKey(base.Config, stagecache.Digest(strings.Repeat("e", 64)), truthD, "") == baseFig {
		t.Error("figures key ignores the dataset content")
	}
	if rc.FiguresKey(base.Config, dsD, stagecache.Digest(strings.Repeat("f", 64)), "") == baseFig {
		t.Error("figures key ignores the truth content")
	}
	if rc.FiguresKey(base.Config, dsD, truthD, stagecache.Digest(strings.Repeat("9", 64))) == baseFig {
		t.Error("figures key ignores the counterfactual baseline")
	}

	// Stats and figures keys live in different domains: identical material
	// can never alias across stages.
	if baseStats == baseFig {
		t.Error("stats and figures keys alias")
	}
}

// TestStatsKeyStableAcrossProcesses re-derives the stats key in a child
// process (same binary, same inputs) and requires the same digest —
// process identity, ASLR, map ordering and environment must not leak into
// keys, or a daemon and a CLI could never share a cache.
func TestStatsKeyStableAcrossProcesses(t *testing.T) {
	if os.Getenv("LOCKDOWN_PRINT_STATS_KEY") == "1" {
		// Child mode: print the key and exit inside the test process.
		key, err := deriveStableStatsKey(t)
		if err != nil {
			fmt.Println("ERROR:", err)
		} else {
			fmt.Println("STATSKEY:", key)
		}
		return
	}
	want, err := deriveStableStatsKey(t)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		cmd := exec.Command(os.Args[0], "-test.run", "TestStatsKeyStableAcrossProcesses$", "-test.v")
		cmd.Env = append(os.Environ(), "LOCKDOWN_PRINT_STATS_KEY=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		_, after, found := strings.Cut(string(out), "STATSKEY: ")
		if !found {
			t.Fatalf("child printed no key:\n%s", out)
		}
		got := stagecache.Digest(strings.TrimSpace(strings.SplitN(after, "\n", 2)[0]))
		if got != want {
			t.Fatalf("child %d derived %s, parent derived %s", i, got, want)
		}
	}
}

func deriveStableStatsKey(t *testing.T) (stagecache.Digest, error) {
	reg, err := universe.New()
	if err != nil {
		return "", err
	}
	cfg := runner.Config{
		Scale:    0.05,
		Seed:     1,
		Key:      cacheTestKey,
		CacheDir: t.TempDir(),
	}
	rc, err := runner.OpenCache(cfg, reg, nil)
	if err != nil {
		return "", err
	}
	if rc.Store == nil {
		return "", fmt.Errorf("cache did not engage: %s", rc.Note)
	}
	return rc.StatsKey(cfg, "", false), nil
}
