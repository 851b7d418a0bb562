package main

import (
	"io"
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
