package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/universe"
)

// TestMeasureScalingSmoke drives measureScaling end to end at a small
// scale: both reference pipelines must accept the recorded window (the
// single pipeline through per-event delivery, the sharded one through the
// batched fast path) and produce positive rates. Regression test for the
// BatchSink cast panic: the single pipeline does not implement
// trace.BatchSink and must be fed per event.
func TestMeasureScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and replays a 5-day window")
	}
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{Config: runner.Config{Scale: 0.01, Seed: 1}}
	single, sharded, err := measureScaling(reg, cfg, 2, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if single <= 0 || sharded <= 0 {
		t.Fatalf("rates = (%f, %f), want both positive", single, sharded)
	}

	if _, _, err := measureScaling(reg, cfg, 1, io.Discard); err == nil {
		t.Error("shards < 2 should error")
	}
}

// TestBadFlagsFailBeforeWork: flag combinations that can only be judged
// against the bench report or the shard count are refused before ingest
// starts — the run returns the error and leaves no output directory.
func TestBadFlagsFailBeforeWork(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config
		want string
	}{
		{"measure-scaling without bench-json", config{measureScaling: true, Config: runner.Config{Shards: 2}}, "-bench-json"},
		{"measure-scaling at one shard", config{measureScaling: true, benchJSON: "bench.json", Config: runner.Config{Shards: 1}}, "-shards ≥ 2"},
		{"negative shards", config{Config: runner.Config{Shards: -1}}, "-shards -1"},
		{"yoy with logs", config{Config: runner.Config{Logs: "logs", Yoy: true}}, "-yoy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := tc.cfg
			cfg.Scale, cfg.Seed, cfg.quiet, cfg.statusW = 0.002, 1, true, io.Discard
			cfg.Out = filepath.Join(dir, "out")
			if cfg.benchJSON != "" {
				cfg.benchJSON = filepath.Join(dir, cfg.benchJSON)
			}
			err := run(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
			if _, err := os.Stat(cfg.Out); !os.IsNotExist(err) {
				t.Errorf("output directory exists after the refused run (stat err %v)", err)
			}
		})
	}
}
