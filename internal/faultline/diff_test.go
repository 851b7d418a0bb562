package faultline_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campus"
	"repro/internal/core"
	"repro/internal/devclass"
	"repro/internal/experiments"
	"repro/internal/faultline"
	"repro/internal/logsink"
	"repro/internal/trace"
	"repro/internal/universe"
	"repro/internal/viz"
)

// The differential robustness harness: replaying a 5%-scale dataset with
// ≤0.1% injected corruption under the skip policy must agree with the
// clean run — headline Stats within the declared tolerances, figure CSVs
// with byte-identical shapes — and every dropped record must be accounted
// (accepted + drops == offered).

const (
	diffScale = 0.05
	diffSeed  = 1
	faultRate = 0.001 // 0.1% per-record corruption
	faultSeed = 7
)

// Declared tolerances. Volume counters may shift only by the corruption
// rate plus parse-side effects (a flipped digit changes a byte count
// without dropping the record) — well under 1%. Cut counters (tap,
// window, attribution, label) are small relative to volume and amplified
// by lease loss (one dropped lease unattributes a device's flows until
// renewal), so they are bounded in absolute terms as a fraction of total
// flow volume rather than relative to their own (near-zero) clean values.
const (
	volumeRelTol = 0.01  // 1% on FlowsProcessed, DNSEntries, HTTPEntries, Leases, BytesProcessed
	cutAbsFrac   = 0.005 // cut counters may move by ≤0.5% of clean FlowsProcessed
)

var diffKey = []byte("faultline-diff-key-0123456789abc")

func writeDataset(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = diffScale
	cfg.Seed = diffSeed
	g, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := logsink.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// replay runs the dataset through a fresh pipeline under opts and returns
// the dataset.
func replay(t *testing.T, dir string, opts logsink.ReplayOptions) *core.Dataset {
	t.Helper()
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.NewPipeline(reg, core.Options{Key: diffKey})
	if err != nil {
		t.Fatal(err)
	}
	if err := logsink.ReplayWithOptions(dir, pipe, opts); err != nil {
		t.Fatal(err)
	}
	return pipe.Finalize()
}

// csvShape reduces a rendered CSV to its structure: the verbatim header
// line plus the field count of every row. Two runs whose CSVs have equal
// shapes chart the same figures with the same axes — only values differ.
func csvShape(t *testing.T, render func(w *bytes.Buffer)) string {
	t.Helper()
	var buf bytes.Buffer
	render(&buf)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var b strings.Builder
	b.WriteString(lines[0])
	for _, l := range lines[1:] {
		fmt.Fprintf(&b, "|%d", strings.Count(l, ",")+1)
	}
	return b.String()
}

// figureShapes renders the fig1/fig2 CSVs exactly as cmd/lockdown does and
// returns their shapes.
func figureShapes(t *testing.T, ds *core.Dataset) []string {
	t.Helper()
	labels := make([]string, campus.NumDays)
	for d := campus.Day(0); d < campus.NumDays; d++ {
		labels[d] = d.String()
	}
	f1 := experiments.Fig1(ds)
	f2 := experiments.Fig2(ds)

	shape1 := csvShape(t, func(w *bytes.Buffer) {
		cols := map[string][]float64{}
		var order []string
		for _, ty := range devclass.Types {
			series := make([]float64, campus.NumDays)
			for d, v := range f1.ByType[ty] {
				series[d] = float64(v)
			}
			cols[ty.String()] = series
			order = append(order, ty.String())
		}
		if err := viz.WriteCSV(w, "date", labels, cols, order); err != nil {
			t.Fatal(err)
		}
	})
	shape2 := csvShape(t, func(w *bytes.Buffer) {
		cols := map[string][]float64{}
		var order []string
		for _, ty := range devclass.Types {
			name := ty.String()
			cols[name+"_mean"] = f2.Mean[ty]
			cols[name+"_median"] = f2.Median[ty]
			order = append(order, name+"_mean", name+"_median")
		}
		if err := viz.WriteCSV(w, "date", labels, cols, order); err != nil {
			t.Fatal(err)
		}
	})
	return []string{shape1, shape2}
}

// volumeFields are the Stats counters held to the relative tolerance; the
// remaining int64 fields are cut counters held to the absolute bound.
var volumeFields = map[string]bool{
	"FlowsProcessed": true, "DNSEntries": true, "HTTPEntries": true,
	"Leases": true, "BytesProcessed": true,
}

func compareStats(t *testing.T, label string, clean, faulted core.Stats) {
	t.Helper()
	cutAbsTol := cutAbsFrac * float64(clean.FlowsProcessed)
	cv, fv := reflect.ValueOf(clean), reflect.ValueOf(faulted)
	for i := 0; i < cv.NumField(); i++ {
		name := cv.Type().Field(i).Name
		c, f := cv.Field(i).Int(), fv.Field(i).Int()
		diff := math.Abs(float64(f - c))
		if volumeFields[name] {
			if tol := volumeRelTol * float64(c); diff > tol {
				t.Errorf("%s: Stats.%s clean %d vs faulted %d (|Δ|=%.0f > %.0f)", label, name, c, f, diff, tol)
			}
		} else if diff > cutAbsTol {
			t.Errorf("%s: Stats.%s clean %d vs faulted %d (|Δ|=%.0f > %.0f)", label, name, c, f, diff, cutAbsTol)
		}
	}
}

func TestDifferentialCorruptedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full five-percent-scale generate plus two replays")
	}
	dir := writeDataset(t)

	clean := replay(t, dir, logsink.ReplayOptions{})
	if clean.Stats.FlowsProcessed == 0 || clean.Stats.Leases == 0 {
		t.Fatalf("degenerate clean run: %+v", clean.Stats)
	}

	inject := &faultline.Config{Seed: faultSeed, Rate: faultRate}
	guard := faultline.NewGuard(faultline.PolicySkip, 0, nil, nil)
	faulted := replay(t, dir, logsink.ReplayOptions{Guard: guard, Inject: inject})

	// Accounting: every record offered to the parsers is either accepted
	// or dropped into a per-class counter — nothing vanishes silently.
	if guard.Accepted()+guard.DropTotal() != guard.Offered() {
		t.Fatalf("accounting broken: accepted %d + drops %d != offered %d",
			guard.Accepted(), guard.DropTotal(), guard.Offered())
	}
	if guard.DropTotal() == 0 {
		t.Fatal("0.1% corruption dropped nothing — injector or guard inert")
	}
	t.Logf("guard: %s", guard.Summary())
	dropFrac := float64(guard.DropTotal()) / float64(guard.Offered())
	if dropFrac > 2*faultRate {
		t.Errorf("drop fraction %.5f implausibly high for %.4g corruption", dropFrac, faultRate)
	}

	compareStats(t, "faulted", clean.Stats, faulted.Stats)

	// Figure-CSV shape: corruption at this rate may nudge values but must
	// not change what gets charted — same header, same rows, same fields.
	cleanShapes := figureShapes(t, clean)
	faultedShapes := figureShapes(t, faulted)
	for i := range cleanShapes {
		if cleanShapes[i] != faultedShapes[i] {
			t.Errorf("fig%d CSV shape diverged under corruption", i+1)
		}
	}
}

// TestCorruptDatasetRoundTrip exercises the at-rest corruption path (the
// CI smoke job's tool of choice): corrupt the dataset on disk, replay it
// under quarantine, and check the sidecar accounts for every drop.
func TestCorruptDatasetRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("five-percent-scale dataset on disk")
	}
	src := writeDataset(t)
	dst := t.TempDir()
	reports, err := faultline.CorruptDataset(src, dst, faultline.Config{Seed: 3, Rate: faultRate})
	if err != nil {
		t.Fatal(err)
	}
	var total faultline.Report
	for _, r := range reports {
		total.Merge(r)
	}
	if total.Total() == 0 {
		t.Fatal("CorruptDataset injected nothing")
	}

	var sidecar bytes.Buffer
	guard := faultline.NewGuard(faultline.PolicyQuarantine, 0, &sidecar, nil)
	ds := replay(t, dst, logsink.ReplayOptions{Guard: guard})
	if ds.Stats.FlowsProcessed == 0 {
		t.Fatal("corrupted replay produced no flows")
	}
	if guard.Accepted()+guard.DropTotal() != guard.Offered() {
		t.Fatalf("accounting broken: %s", guard.Summary())
	}
	if lines := int64(strings.Count(sidecar.String(), "\n")); lines != guard.DropTotal() {
		t.Fatalf("sidecar has %d lines, guard dropped %d", lines, guard.DropTotal())
	}
	t.Logf("dataset corruption: %s; guard: %s", total, guard.Summary())
}
