package core

import (
	"reflect"
	"testing"

	"repro/internal/campus"
	"repro/internal/trace"
	"repro/internal/universe"
)

// snapshotTestWindow is the window the snapshot tests replay: the weeks
// around the campus shutdown, where the device mix changes fastest (same
// choice as the -short parity window).
const (
	snapFrom = campus.Day(40)
	snapMid  = campus.Day(44)
	snapTo   = campus.Day(48)
)

func mustEqualDatasets(t *testing.T, label string, want, got *Dataset) {
	t.Helper()
	if want.Stats != got.Stats {
		t.Errorf("%s: stats differ:\nwant %+v\ngot  %+v", label, want.Stats, got.Stats)
	}
	if len(want.Devices) != len(got.Devices) {
		t.Fatalf("%s: %d devices, want %d", label, len(got.Devices), len(want.Devices))
	}
	for i := range want.Devices {
		if !reflect.DeepEqual(want.Devices[i], got.Devices[i]) {
			t.Fatalf("%s: device %d differs:\nwant %+v\ngot  %+v",
				label, i, want.Devices[i], got.Devices[i])
		}
	}
}

// runWindow replays [from, to) into sink using a fresh generator unless g
// is non-nil (reusing g continues its RNG stream, composing windows).
func runWindow(t *testing.T, g *trace.Generator, reg *universe.Registry, sink trace.Sink, from, to campus.Day) *trace.Generator {
	t.Helper()
	if g == nil {
		cfg := trace.DefaultConfig()
		cfg.Scale = 0.02
		var err error
		g, err = trace.New(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := g.RunDays(sink, from, to); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSnapshotMatchesFinalize pins the snapshot contract for the single
// pipeline:
//
//  1. a mid-stream Snapshot equals the Finalize of a fresh pipeline fed
//     the same prefix (open sessions are folded in exactly as Flush
//     would emit them);
//  2. an end-of-stream Snapshot equals the pipeline's own Finalize;
//  3. taking snapshots does not perturb the final result (a never-
//     snapshotted pipeline finalizes identically); and
//  4. a published snapshot is immutable under continued ingest.
func TestSnapshotMatchesFinalize(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("snapshot-test-key-0123456789abcd")
	mk := func() *Pipeline {
		p, err := NewPipeline(reg, Options{Key: key})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := mk()
	g := runWindow(t, nil, reg, p, snapFrom, snapMid)
	snapMidDS := p.Snapshot()

	prefix := mk()
	runWindow(t, nil, reg, prefix, snapFrom, snapMid)
	prefixDS := prefix.Finalize()
	if prefixDS.Stats.FlowsProcessed == 0 {
		t.Fatalf("degenerate prefix run: %+v", prefixDS.Stats)
	}
	mustEqualDatasets(t, "mid-stream snapshot vs prefix finalize", prefixDS, snapMidDS)
	if open := snapMidDS.PostShutdownUsers(); prefixDS.Stats.FlowsProcessed > 0 && len(snapMidDS.Devices) == 0 {
		t.Fatalf("snapshot empty with %d flows processed (open sessions: %d)",
			prefixDS.Stats.FlowsProcessed, len(open))
	}

	// Continue feeding past the snapshot, then snapshot again at end of
	// stream and finalize.
	runWindow(t, g, reg, p, snapMid, snapTo)
	snapEndDS := p.Snapshot()
	finalDS := p.Finalize()
	mustEqualDatasets(t, "end-of-stream snapshot vs finalize", finalDS, snapEndDS)

	// A pipeline that was never snapshotted produces the same final
	// dataset: snapshots are side-effect free.
	clean := mk()
	runWindow(t, nil, reg, clean, snapFrom, snapTo)
	mustEqualDatasets(t, "snapshotted vs clean finalize", clean.Finalize(), finalDS)

	// The mid-stream snapshot still equals the prefix finalize — the
	// continued ingest above must not have reached its slices.
	mustEqualDatasets(t, "mid-stream snapshot immutable after further ingest", prefixDS, snapMidDS)
}

func TestSnapshotAfterFinalizePanics(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Finalize()
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot after Finalize did not panic")
		}
	}()
	p.Snapshot()
}
