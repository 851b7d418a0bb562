package figset

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/universe"
)

// TestComputePoolSizeNeutral pins the figure pool's contract: the pool
// runs GOMAXPROCS workers, and its size changes scheduling only, so every
// artifact (each CSV and the report, with a ground truth for the accuracy
// experiment and the IoT sweep) renders byte-identically with one worker
// and with four.
func TestComputePoolSizeNeutral(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.NewPipeline(reg, core.Options{Key: incTestKey})
	if err != nil {
		t.Fatal(err)
	}
	g := incTestGen(t, reg)
	if err := g.RunDays(pipe, 40, 44); err != nil {
		t.Fatal(err)
	}
	ds := pipe.Finalize()
	params := Params{Scale: 0.02, Seed: 1, Truth: g.Truth(pipe.DeviceID)}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		r, figMS, _ := Compute(ds, params)
		if len(figMS) != 16 {
			t.Fatalf("procs=%d: %d figure timings, want one per figure (16)", procs, len(figMS))
		}
		got := renderAll(t, r)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("procs=%d: artifacts differ from the single-worker render", procs)
		}
	}
}
