package figset

import (
	"fmt"
	"io"
	"math"

	"repro/internal/appsig"
	"repro/internal/campus"
	"repro/internal/core"
	"repro/internal/devclass"
	"repro/internal/experiments"
	"repro/internal/viz"
)

func dayLabels() []string {
	labels := make([]string, campus.NumDays)
	for d := campus.Day(0); d < campus.NumDays; d++ {
		labels[d] = d.String()
	}
	return labels
}

var monthLabels = []string{"February", "March", "April", "May"}

// Figure 1: active devices per day by type.
func (r *Results) writeFig1(w io.Writer) error {
	cols := map[string][]float64{}
	var order []string
	for _, ty := range devclass.Types {
		series := make([]float64, campus.NumDays)
		for d, v := range r.Fig1.ByType[ty] {
			series[d] = float64(v)
		}
		cols[ty.String()] = series
		order = append(order, ty.String())
	}
	return viz.WriteCSV(w, "date", dayLabels(), cols, order)
}

// Figure 2: mean and median bytes per device per day by type.
func (r *Results) writeFig2(w io.Writer) error {
	cols := map[string][]float64{}
	var order []string
	for _, ty := range devclass.Types {
		cols["mean_"+ty.String()] = r.Fig2.Mean[ty]
		cols["median_"+ty.String()] = r.Fig2.Median[ty]
		order = append(order, "mean_"+ty.String(), "median_"+ty.String())
	}
	return viz.WriteCSV(w, "date", dayLabels(), cols, order)
}

// Figure 3: normalized hour-of-week medians.
func (r *Results) writeFig3(w io.Writer) error {
	hourLabels := make([]string, campus.HoursPerWeek)
	for h := range hourLabels {
		hourLabels[h] = fmt.Sprintf("h%03d", h)
	}
	cols := map[string][]float64{}
	var order []string
	for w2, label := range r.Fig3.WeekLabels {
		cols[label] = r.Fig3.Normalized[w2]
		order = append(order, label)
	}
	return viz.WriteCSV(w, "hour", hourLabels, cols, order)
}

// Figure 4: population × device-group medians.
func (r *Results) writeFig4(w io.Writer) error {
	cols := map[string][]float64{}
	var order []string
	for _, pop := range []string{experiments.PopDomestic, experiments.PopInternational} {
		for _, grp := range []string{"mobile-desktop", "unclassified"} {
			if series := r.Fig4.Median[pop][grp]; series != nil {
				name := pop + "_" + grp
				cols[name] = series
				order = append(order, name)
			}
		}
	}
	return viz.WriteCSV(w, "date", dayLabels(), cols, order)
}

// Figure 5: daily aggregate Zoom.
func (r *Results) writeFig5(w io.Writer) error {
	return viz.WriteCSV(w, "date", dayLabels(),
		map[string][]float64{"zoom_bytes": r.Fig5.Bytes}, []string{"zoom_bytes"})
}

// Figure 6: monthly summaries per app/population.
func (r *Results) writeFig6(w io.Writer) error {
	cols := map[string][]float64{}
	var order []string
	for _, app := range appsig.SocialMediaApps {
		for _, pop := range []string{experiments.PopDomestic, experiments.PopInternational} {
			sums := r.Fig6.Summary[app][pop]
			for _, stat := range []string{"n", "p1", "q1", "median", "q3", "p95", "p99"} {
				name := fmt.Sprintf("%s_%s_%s", app, pop, stat)
				series := make([]float64, campus.NumMonths)
				for m := campus.February; m < campus.NumMonths; m++ {
					s := sums[m]
					switch stat {
					case "n":
						series[m] = float64(s.N)
					case "p1":
						series[m] = s.P1
					case "q1":
						series[m] = s.Q1
					case "median":
						series[m] = s.Median
					case "q3":
						series[m] = s.Q3
					case "p95":
						series[m] = s.P95
					case "p99":
						series[m] = s.P99
					}
				}
				cols[name] = series
				order = append(order, name)
			}
		}
	}
	return viz.WriteCSV(w, "month", monthLabels, cols, order)
}

// Figure 7: steam bytes and connections summaries.
func (r *Results) writeFig7(w io.Writer) error {
	cols := map[string][]float64{}
	var order []string
	for _, pop := range []string{experiments.PopDomestic, experiments.PopInternational} {
		for _, metric := range []string{"bytes", "connections"} {
			sums := r.Fig7.Bytes[pop]
			if metric == "connections" {
				sums = r.Fig7.Connections[pop]
			}
			for _, stat := range []string{"n", "q1", "median", "q3", "p95"} {
				name := fmt.Sprintf("steam_%s_%s_%s", metric, pop, stat)
				series := make([]float64, campus.NumMonths)
				for m := campus.February; m < campus.NumMonths; m++ {
					s := sums[m]
					switch stat {
					case "n":
						series[m] = float64(s.N)
					case "q1":
						series[m] = s.Q1
					case "median":
						series[m] = s.Median
					case "q3":
						series[m] = s.Q3
					case "p95":
						series[m] = s.P95
					}
				}
				cols[name] = series
				order = append(order, name)
			}
		}
	}
	return viz.WriteCSV(w, "month", monthLabels, cols, order)
}

// Figure 8: switch gameplay moving average.
func (r *Results) writeFig8(w io.Writer) error {
	return viz.WriteCSV(w, "date", dayLabels(),
		map[string][]float64{
			"gameplay_raw":    r.Fig8.GameplayRaw,
			"gameplay_3d_avg": r.Fig8.GameplayAvg,
		}, []string{"gameplay_raw", "gameplay_3d_avg"})
}

// Extension: work/leisure category shares per month and population.
func (r *Results) writeWorkLeisure(w io.Writer) error {
	cols := map[string][]float64{}
	var order []string
	for _, pop := range []string{experiments.PopDomestic, experiments.PopInternational} {
		shares := r.WorkPlay.Share[pop]
		for g := core.CategoryGroup(0); g < core.NumGroups; g++ {
			name := pop + "_" + g.String()
			series := make([]float64, campus.NumMonths)
			for m := campus.February; m < campus.NumMonths; m++ {
				series[m] = shares[m][g]
			}
			cols[name] = series
			order = append(order, name)
		}
	}
	return viz.WriteCSV(w, "month", monthLabels, cols, order)
}

// Extension: Zoom hour-of-day, weekday vs weekend (online term).
func (r *Results) writeZoomHourly(w io.Writer) error {
	hod := make([]string, 24)
	for h := range hod {
		hod[h] = fmt.Sprintf("%02d:00", h)
	}
	return viz.WriteCSV(w, "hour", hod,
		map[string][]float64{
			"weekday": r.ZoomWknd.WeekdayHourly[:],
			"weekend": r.ZoomWknd.WeekendHourly[:],
		}, []string{"weekday", "weekend"})
}

// Report renders the ASCII report.
func (r *Results) Report(w io.Writer) error {
	labels := dayLabels()
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
	}
	atScale := func(v float64) string {
		return fmt.Sprintf("%.0f (≈%.0f at paper scale)", v, v/r.Scale)
	}

	p("==============================================================")
	p(" Locked-In during Lock-Down — reproduction report (scale %.3g)", r.Scale)
	p("==============================================================")
	p("")
	p("Pipeline: %d flows processed, %d tap-dropped, %d unattributed, %d unlabeled",
		r.Stats.FlowsProcessed, r.Stats.FlowsTapDropped, r.Stats.FlowsUnattributed, r.Stats.FlowsUnlabeled)
	p("          %s total, %d DNS entries, %d leases, %d HTTP metadata entries",
		viz.SIBytes(float64(r.Stats.BytesProcessed)), r.Stats.DNSEntries, r.Stats.Leases, r.Stats.HTTPEntries)
	p("")

	p("— Figure 1: active devices per day by type —")
	p("  peak %s on %v (paper: 32,019); low %s on %v (paper: 4,973)",
		atScale(float64(r.Fig1.Peak)), r.Fig1.PeakDay, atScale(float64(r.Fig1.Low)), r.Fig1.LowDay)
	chart := viz.Chart{
		Title: "  active devices/day (all types)", Height: 10, Width: 60,
		Format: func(v float64) string { return fmt.Sprintf("%.0f", v) },
	}
	total := make([]float64, campus.NumDays)
	for d, v := range r.Fig1.Total {
		total[d] = float64(v)
	}
	mob := make([]float64, campus.NumDays)
	unc := make([]float64, campus.NumDays)
	for d := range mob {
		mob[d] = float64(r.Fig1.ByType[devclass.Mobile][d])
		unc[d] = float64(r.Fig1.ByType[devclass.Unknown][d])
	}
	if err := chart.Render(w, labels, map[string][]float64{"total": total, "mobile": mob, "unclassified": unc},
		[]string{"total", "mobile", "unclassified"}); err != nil {
		return err
	}
	p("")

	p("— Figure 2: bytes per active device (mid-February vs mid-May) —")
	febDay, mayDay := campus.Day(12), campus.FirstDay(campus.May)+5
	for _, ty := range devclass.Types {
		p("  %-18s Feb: mean %9s median %9s | May: mean %9s median %9s", ty.String(),
			viz.SIBytes(r.Fig2.Mean[ty][febDay]), viz.SIBytes(r.Fig2.Median[ty][febDay]),
			viz.SIBytes(r.Fig2.Mean[ty][mayDay]), viz.SIBytes(r.Fig2.Median[ty][mayDay]))
	}
	p("")

	p("— Figure 3: normalized median traffic per device per hour of week —")
	for wk, label := range r.Fig3.WeekLabels {
		peak := 0.0
		for _, v := range r.Fig3.Normalized[wk] {
			peak = math.Max(peak, v)
		}
		p("  %-18s devices=%5d peak=%5.1f×min", label, r.Fig3.Devices[wk], peak)
	}
	p("")

	p("— Figure 4: median daily bytes (excl. Zoom), post-shutdown users —")
	for _, pop := range []string{experiments.PopDomestic, experiments.PopInternational} {
		for _, grp := range []string{"mobile-desktop", "unclassified"} {
			if series := r.Fig4.Median[pop][grp]; series != nil {
				p("  %-13s %-14s n=%4d Feb=%9s May=%9s", pop, grp, r.Fig4.N[pop][grp],
					viz.SIBytes(series[febDay]), viz.SIBytes(series[mayDay]))
			}
		}
	}
	p("")

	p("— Figure 5: daily aggregate Zoom traffic (post-shutdown users) —")
	p("  peak %s on %v (paper: ≈600 GB at full scale → %s at this scale)",
		viz.SIBytes(r.Fig5.Peak), r.Fig5.PeakDay, viz.SIBytes(600*(1<<30)*r.Scale))
	p("  online-term weekday mean %s vs weekend mean %s",
		viz.SIBytes(r.Fig5.WeekdayMean), viz.SIBytes(r.Fig5.WeekendMean))
	if err := (viz.Chart{Title: "  zoom bytes/day", Height: 8, Width: 60}).Render(w, labels,
		map[string][]float64{"zoom": r.Fig5.Bytes}, []string{"zoom"}); err != nil {
		return err
	}
	p("")

	p("— Figure 6: monthly mobile session hours (median [IQR], by population) —")
	for _, app := range appsig.SocialMediaApps {
		for _, pop := range []string{experiments.PopDomestic, experiments.PopInternational} {
			sums := r.Fig6.Summary[app][pop]
			line := fmt.Sprintf("  %-10s %-13s", app, pop)
			for m := campus.February; m < campus.NumMonths; m++ {
				s := sums[m]
				line += fmt.Sprintf(" | %s n=%-3d med=%5.2fh", m.String()[:3], s.N, s.Median)
			}
			p("%s", line)
		}
	}
	p("")

	p("— Figure 7: monthly Steam usage per device (by population) —")
	for _, pop := range []string{experiments.PopDomestic, experiments.PopInternational} {
		b, c := r.Fig7.Bytes[pop], r.Fig7.Connections[pop]
		line := fmt.Sprintf("  %-13s", pop)
		for m := campus.February; m < campus.NumMonths; m++ {
			line += fmt.Sprintf(" | %s n=%-3d %8s %4.0f conns", m.String()[:3], b[m].N, viz.SIBytes(b[m].Median), c[m].Median)
		}
		p("%s", line)
	}
	p("")

	p("— Figure 8: Nintendo Switch gameplay (3-day moving average) —")
	p("  switches pre-shutdown %s (paper: 1,097); post %s (paper: 267 + 40 new); new %s (paper: 40)",
		atScale(float64(r.Fig8.PreShutdown)), atScale(float64(r.Fig8.PostShutdown)), atScale(float64(r.Fig8.NewSwitches)))
	if err := (viz.Chart{Title: "  gameplay bytes/day (3d avg)", Height: 8, Width: 60}).Render(w, labels,
		map[string][]float64{"gameplay": r.Fig8.GameplayAvg}, []string{"gameplay"}); err != nil {
		return err
	}
	p("")

	p("— §4.1 headline results (post-shutdown users) —")
	p("  traffic growth Feb→Apr/May: %+.0f%% (paper: +58%%)", r.Head.TrafficGrowth*100)
	p("  distinct sites growth:      %+.0f%% (paper: +34%%)", r.Head.DistinctSiteGrowth*100)
	p("  weekend dip pre/post:       %.0f%% / %.0f%% (persist, unlike Feldmann et al.)",
		r.Head.WeekendDipPre*100, r.Head.WeekendDipPost*100)
	p("  post-shutdown users:        %s (paper: 6,522)", atScale(float64(r.Head.PostShutdownUsers)))
	p("")

	p("— §4.2 population split —")
	p("  international: %s (paper: 1,022); share of identified: %.0f%% (paper: 18%%)",
		atScale(float64(r.Pop.International)), r.Pop.IntlShare*100)
	p("")

	p("— §3 classifier accuracy (100 sampled devices vs ground truth) —")
	p("  correct %d, conservative omissions %d, affirmative errors %d (paper: 84/14/2)",
		r.Acc.Correct, r.Acc.Omissions, r.Acc.Affirmative)
	p("")

	p("— Ablations and extensions —")
	p("  CDN exclusion (§4.2): international %d with exclusion vs %d without; %d flipped domestic",
		r.CDNAblate.IntlExcluded, r.CDNAblate.IntlIncluded, r.CDNAblate.FlippedToDomestic)
	p("  Saidi threshold sweep (§3):")
	for _, pt := range r.IoTSweep {
		p("    threshold %.2f: %5d IoT devices, %d correct / %d omissions / %d affirmative",
			pt.Threshold, pt.IoTCount, pt.Correct, pt.Omissions, pt.Affirmative)
	}
	dom := r.WorkPlay.Share[experiments.PopDomestic]
	p("  work/leisure shares (domestic): Feb work %.1f%% video %.1f%% | Apr work %.1f%% video %.1f%%",
		dom[campus.February][core.GroupWork]*100, dom[campus.February][core.GroupVideo]*100,
		dom[campus.April][core.GroupWork]*100, dom[campus.April][core.GroupVideo]*100)
	p("  weekend Zoom peak at hour %d (§5.1's afternoon bump, \"not shown\" in the paper)",
		r.ZoomWknd.WeekendPeakHour)
	p("  diurnal convergence (§2 vs Feldmann et al.): similarities %v → converged=%v",
		fmtSims(r.Convergence.Similarity), r.Convergence.Converged)
	if r.YoY != nil {
		p("  year-over-year (counterfactual baseline): %+.0f%% (paper: +53%% vs 2019)", r.YoY.Growth*100)
	}
	return nil
}

func fmtSims(sims []float64) string {
	out := "["
	for i, s := range sims {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.3f", s)
	}
	return out + "]"
}
