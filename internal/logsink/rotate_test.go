package logsink

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/universe"
)

func TestRotatingWriterMatchesMonolithic(t *testing.T) {
	if testing.Short() {
		t.Skip("disk round trip")
	}
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.005

	// Monolithic reference.
	monoDir := t.TempDir()
	g1, _ := trace.New(cfg, reg)
	w1, err := NewWriter(monoDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.RunDays(w1, 3, 8); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	ref := &tally{t: t}
	if err := ReplayWithOptions(monoDir, ref, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}

	// Rotated (gzip, to cover both options at once).
	rotDir := t.TempDir()
	g2, _ := trace.New(cfg, reg)
	w2, err := NewRotatingWriter(rotDir, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.RunDays(w2, 3, 8); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// One directory per generated day.
	entries, err := os.ReadDir(rotDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("day dirs = %d, want 5", len(entries))
	}
	if _, err := os.Stat(filepath.Join(rotDir, "2020-02-04", ConnFile+".gz")); err != nil {
		t.Fatalf("expected rotated gz conn log: %v", err)
	}

	got := &tally{t: t}
	if err := ReplayRotatedWithOptions(rotDir, got, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	if got.flows != ref.flows || got.bytes != ref.bytes ||
		got.dns != ref.dns || got.http != ref.http || got.leases != ref.leases {
		t.Errorf("rotated replay %+v != monolithic %+v",
			[5]int64{int64(got.flows), got.bytes, int64(got.dns), int64(got.http), int64(got.leases)},
			[5]int64{int64(ref.flows), ref.bytes, int64(ref.dns), int64(ref.http), int64(ref.leases)})
	}

	// Both layouts replay in one order. A directory's leases come first,
	// so the flat replay delivers every lease before the traffic and the
	// rotated one each day's leases before that day's traffic; apart from
	// where the leases sit, the two sequences are the same.
	flat, rot := &recorder{}, &recorder{}
	if err := ReplayWithOptions(monoDir, flat, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := ReplayRotatedWithOptions(rotDir, rot, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	isLease := func(e streamEvent) bool { return e.kind == kindLease }
	notLease := func(e streamEvent) bool { return !isLease(e) }
	requireSameSeq(t, "flat vs rotated leases",
		slices.DeleteFunc(slices.Clone(flat.seq), notLease), slices.DeleteFunc(slices.Clone(rot.seq), notLease))
	requireSameSeq(t, "flat vs rotated traffic",
		slices.DeleteFunc(flat.seq, isLease), slices.DeleteFunc(rot.seq, isLease))
}

func TestReplayRotatedEmpty(t *testing.T) {
	if err := ReplayRotatedWithOptions(t.TempDir(), &tally{t: t}, ReplayOptions{}); err == nil {
		t.Error("empty root accepted")
	}
}
