package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// TestObservabilityEquivalence runs the full harness twice — once with
// every observability consumer enabled (progress, bench report) and once
// with all of it off — under the same fixed key and seed, and requires
// byte-identical figure CSVs. Instrumentation must only observe.
func TestObservabilityEquivalence(t *testing.T) {
	scale := 0.05
	if testing.Short() {
		scale = 0.01
	}
	key := []byte("equivalence-test-key-0123456789abcd")

	base := config{
		Config:  runner.Config{Scale: scale, Seed: 1, Shards: 1, Key: key},
		quiet:   true,
		statusW: io.Discard,
	}

	plainDir := t.TempDir()
	plain := base
	plain.Out = plainDir
	if err := run(plain); err != nil {
		t.Fatalf("plain run: %v", err)
	}

	obsDir := t.TempDir()
	benchPath := filepath.Join(t.TempDir(), "bench.json")
	instr := base
	instr.Out = obsDir
	instr.progressEvery = 500 * time.Millisecond
	instr.progressFormat = "json"
	instr.benchJSON = benchPath
	if err := run(instr); err != nil {
		t.Fatalf("instrumented run: %v", err)
	}

	csvs, err := filepath.Glob(filepath.Join(plainDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvs) < 8 {
		t.Fatalf("only %d CSVs written, expected every figure", len(csvs))
	}
	for _, p := range csvs {
		name := filepath.Base(p)
		want, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(obsDir, name))
		if err != nil {
			t.Fatalf("instrumented run missing %s: %v", name, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs between plain and instrumented runs", name)
		}
	}
	// The text report must match too (same stats, same figures).
	want, err := os.ReadFile(filepath.Join(plainDir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(obsDir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("report.txt differs between plain and instrumented runs")
	}

	// And the instrumented run must have produced a valid bench report.
	br, err := obs.LoadBench(benchPath)
	if err != nil {
		t.Fatalf("bench report: %v", err)
	}
	if br.Ingest.Flows == 0 || br.Ingest.FlowsPerSec <= 0 {
		t.Errorf("bench report has empty ingest section: %+v", br.Ingest)
	}
	if len(br.FiguresMS) < 10 {
		t.Errorf("bench report has %d figure timings, want ≥10", len(br.FiguresMS))
	}
	if br.Scale != scale || br.Seed != 1 {
		t.Errorf("bench report run params = scale %v seed %d", br.Scale, br.Seed)
	}
	if len(br.Stages) == 0 {
		t.Error("bench report missing stage counters")
	}
}

// TestShardedRunMatchesSingle pins the sharded path against the single
// pipeline end to end at the acceptance scale (5%, seed 1): for every
// shard count tested, the figure CSVs must be byte-identical and the text
// report — which renders the merged Stats — must match too.
func TestShardedRunMatchesSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestObservabilityEquivalence in short mode")
	}
	key := []byte("sharded-equiv-key-0123456789abcdef0")
	base := config{
		Config:  runner.Config{Scale: 0.05, Seed: 1, Key: key},
		quiet:   true,
		statusW: io.Discard,
	}
	singleDir := t.TempDir()
	single := base
	single.Out = singleDir
	single.Shards = 1
	if err := run(single); err != nil {
		t.Fatalf("single run: %v", err)
	}
	csvs, err := filepath.Glob(filepath.Join(singleDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvs) < 8 {
		t.Fatalf("only %d CSVs written, expected every figure", len(csvs))
	}

	for _, shards := range []int{4, 8} {
		shardDir := t.TempDir()
		sharded := base
		sharded.Out = shardDir
		sharded.Shards = shards
		sharded.progressEvery = time.Second // exercise shard snapshots too
		if err := run(sharded); err != nil {
			t.Fatalf("%d-shard run: %v", shards, err)
		}
		for _, p := range csvs {
			name := filepath.Base(p)
			want, _ := os.ReadFile(p)
			got, err := os.ReadFile(filepath.Join(shardDir, name))
			if err != nil {
				t.Fatalf("%d-shard run missing %s: %v", shards, name, err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s differs between single and %d-shard runs", name, shards)
			}
		}
		want, err := os.ReadFile(filepath.Join(singleDir, "report.txt"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(shardDir, "report.txt"))
		if err != nil {
			t.Fatalf("%d-shard run missing report.txt: %v", shards, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("report.txt differs between single and %d-shard runs", shards)
		}
	}
}
