// Package figset computes and renders the full figure/report set from a
// finalized (or snapshotted) core.Dataset. It is the single source of
// truth for every CSV artifact and the ASCII report: the batch CLI writes
// them to disk and the daemon serves them over HTTP, and because both go
// through the same writers the bytes are identical for the same dataset.
package figset

import (
	"fmt"
	"io"

	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/devclass"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// Params configures Compute.
type Params struct {
	// Scale is the population scale the dataset was produced at; reports
	// extrapolate counts to paper scale with it.
	Scale float64
	// Seed drives the accuracy experiment's device sampling.
	Seed int64
	// Truth is the generator's ground-truth device typing for the accuracy
	// experiment and IoT threshold sweep; nil skips neither (they just
	// score zero devices).
	Truth map[anonymize.DeviceID]devclass.Type
}

// Results bundles every computed experiment for rendering.
type Results struct {
	Scale float64
	Fig1  experiments.Fig1Result
	Fig2  experiments.Fig2Result
	Fig3  experiments.Fig3Result
	Fig4  experiments.Fig4Result
	Fig5  experiments.Fig5Result
	Fig6  experiments.Fig6Result
	Fig7  experiments.Fig7Result
	Fig8  experiments.Fig8Result
	Head  experiments.HeadlineResult
	Pop   experiments.PopulationResult
	Acc   experiments.AccuracyResult

	// YoY is optional (requires a counterfactual baseline run); the caller
	// sets it after Compute when available.
	YoY         *experiments.YearOverYearResult
	CDNAblate   experiments.CDNAblationResult
	IoTSweep    []experiments.IoTThresholdPoint
	WorkPlay    experiments.WorkLeisureResult
	ZoomWknd    experiments.ZoomWeekendResult
	Convergence experiments.DiurnalConvergenceResult

	Stats core.Stats
}

// Compute runs every experiment over ds on a pool of GOMAXPROCS workers:
// each figure is an independent pure function over the sealed Dataset
// writing its own Results slot, so the pool size changes scheduling only,
// never output bytes. It returns per-figure wall times in milliseconds
// and the pool's overall wall time (on a multi-core host the max lane,
// not the sum) for bench reports.
func Compute(ds *core.Dataset, p Params) (*Results, map[string]float64, float64) {
	r := &Results{Scale: p.Scale, Stats: ds.Stats}
	tasks := []obs.TimedTask{
		{Name: "fig1", Run: func() { r.Fig1 = experiments.Fig1(ds) }},
		{Name: "fig2", Run: func() { r.Fig2 = experiments.Fig2(ds) }},
		{Name: "fig3", Run: func() { r.Fig3 = experiments.Fig3(ds) }},
		{Name: "fig4", Run: func() { r.Fig4 = experiments.Fig4(ds) }},
		{Name: "fig5", Run: func() { r.Fig5 = experiments.Fig5(ds) }},
		{Name: "fig6", Run: func() { r.Fig6 = experiments.Fig6(ds) }},
		{Name: "fig7", Run: func() { r.Fig7 = experiments.Fig7(ds) }},
		{Name: "fig8", Run: func() { r.Fig8 = experiments.Fig8(ds) }},
		{Name: "headline", Run: func() { r.Head = experiments.Headline(ds) }},
		{Name: "population", Run: func() { r.Pop = experiments.Population(ds) }},
		{Name: "accuracy", Run: func() { r.Acc = experiments.Accuracy(ds, p.Truth, 100, p.Seed) }},
		{Name: "cdn_ablation", Run: func() { r.CDNAblate = experiments.CDNAblation(ds) }},
		{Name: "iot_sweep", Run: func() {
			r.IoTSweep = experiments.IoTThresholdSweep(ds, p.Truth, []float64{0.25, 0.5, 0.75, 1.0})
		}},
		{Name: "work_leisure", Run: func() { r.WorkPlay = experiments.WorkLeisure(ds) }},
		{Name: "zoom_weekend", Run: func() { r.ZoomWknd = experiments.ZoomWeekend(ds) }},
		{Name: "convergence", Run: func() { r.Convergence = experiments.DiurnalConvergence(ds) }},
	}
	figMS, figWallMS := obs.RunTimedParallel(tasks)
	return r, figMS, figWallMS
}

// figureOrder is the canonical artifact list: CSV file names in the order
// the batch CLI writes them and the daemon's index lists them.
var figureOrder = []string{
	"fig1_active_devices.csv",
	"fig2_bytes_per_device.csv",
	"fig3_hour_of_week.csv",
	"fig4_population_medians.csv",
	"fig5_zoom_daily.csv",
	"fig6_social_durations.csv",
	"fig7_steam.csv",
	"fig8_switch_gameplay.csv",
	"ext_work_leisure.csv",
	"ext_zoom_hourly.csv",
}

// FigureNames returns the CSV artifact names in canonical order.
func FigureNames() []string { return append([]string(nil), figureOrder...) }

// WriteFigure renders one named figure CSV to w. Unknown names error.
func (r *Results) WriteFigure(w io.Writer, name string) error {
	switch name {
	case "fig1_active_devices.csv":
		return r.writeFig1(w)
	case "fig2_bytes_per_device.csv":
		return r.writeFig2(w)
	case "fig3_hour_of_week.csv":
		return r.writeFig3(w)
	case "fig4_population_medians.csv":
		return r.writeFig4(w)
	case "fig5_zoom_daily.csv":
		return r.writeFig5(w)
	case "fig6_social_durations.csv":
		return r.writeFig6(w)
	case "fig7_steam.csv":
		return r.writeFig7(w)
	case "fig8_switch_gameplay.csv":
		return r.writeFig8(w)
	case "ext_work_leisure.csv":
		return r.writeWorkLeisure(w)
	case "ext_zoom_hourly.csv":
		return r.writeZoomHourly(w)
	default:
		return fmt.Errorf("figset: unknown figure %q", name)
	}
}
