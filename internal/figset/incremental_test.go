package figset

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/campus"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/universe"
)

var incTestKey = []byte("figset-incremental-key-012345678")

func incTestGen(t testing.TB, reg *universe.Registry) *trace.Generator {
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.02
	cfg.Seed = 1
	g, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// renderAll renders every figure CSV plus the report into one byte slice —
// the full artifact surface two Results are compared on.
func renderAll(t testing.TB, r *Results) []byte {
	var buf bytes.Buffer
	for _, name := range FigureNames() {
		if err := r.WriteFigure(&buf, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Report(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIncrementalMatchesFullCompute pins the incremental maintainer's
// contract: at every day seal, the figures computed over the copy-on-write
// delta snapshot render byte-identically to figures computed over a full
// snapshot of the same pipeline — across the whole artifact surface (every
// CSV and the report).
func TestIncrementalMatchesFullCompute(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.NewPipeline(reg, core.Options{Key: incTestKey})
	if err != nil {
		t.Fatal(err)
	}
	g := incTestGen(t, reg)
	params := Params{Scale: 0.02, Seed: 1}
	inc := NewIncremental(pipe, params, core.Stats{})

	var sum core.Stats
	for day := campus.Day(40); day < 44; day++ {
		if err := g.RunDays(pipe, day, day+1); err != nil {
			t.Fatal(err)
		}
		ep, err := inc.Seal(fmt.Sprintf("day-%03d", day))
		if err != nil {
			t.Fatal(err)
		}
		sum = sum.Add(ep.Partial.Stats)
		snap := pipe.Snapshot()
		if sum != snap.Stats {
			t.Fatalf("day %d: summed day deltas %+v != snapshot stats %+v", day, sum, snap.Stats)
		}
		full, _, _ := Compute(snap, params)
		if !bytes.Equal(renderAll(t, ep.Results), renderAll(t, full)) {
			t.Fatalf("day %d: incremental figures differ from full-snapshot figures", day)
		}
	}
}

// benchmarkEpoch times one daemon epoch publish with realistic accumulated
// state (three days already ingested, the fourth just streamed in):
// full = Snapshot + Compute (the pre-incremental daemon's per-epoch cost),
// incremental = SealDay + SnapshotDelta + Compute.
func benchmarkEpoch(b *testing.B, incremental bool) {
	reg, err := universe.New()
	if err != nil {
		b.Fatal(err)
	}
	params := Params{Scale: 0.02, Seed: 1}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pipe, err := core.NewPipeline(reg, core.Options{Key: incTestKey})
		if err != nil {
			b.Fatal(err)
		}
		g := incTestGen(b, reg)
		inc := NewIncremental(pipe, params, core.Stats{})
		for day := campus.Day(40); day < 43; day++ {
			if err := g.RunDays(pipe, day, day+1); err != nil {
				b.Fatal(err)
			}
			if incremental {
				if _, err := inc.Seal(fmt.Sprintf("day-%03d", day)); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := g.RunDays(pipe, 43, 44); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if incremental {
			if _, err := inc.Seal("day-043"); err != nil {
				b.Fatal(err)
			}
		} else {
			Compute(pipe.Snapshot(), params)
		}
	}
}

func BenchmarkEpochFullSnapshot(b *testing.B) { benchmarkEpoch(b, false) }
func BenchmarkEpochIncremental(b *testing.B)  { benchmarkEpoch(b, true) }
