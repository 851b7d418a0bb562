package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // sample count and statistic, printed beside the value
}

// report collects one workload's results.
type report struct {
	workload          string
	e2eM              []metric // end-to-end, from the untraced run
	layers            []metric // per-layer, from the traced repeat
	details           []metric // further detail, printed but not gated
	attempted, failed int
	failures          []string
	spans             []span
}

// maxFailures bounds the failure messages kept; the count stays exact.
const maxFailures = 20

func (r *report) fail(format string, args ...any) {
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return len(r.failures) == 0 && r.failed == 0 }

func (r *report) e2e(name string, v float64, unit, note string) {
	r.e2eM = append(r.e2eM, metric{name, v, unit, note})
}

func (r *report) layer(name string, v float64, unit string) {
	r.layers = append(r.layers, metric{Name: name, Value: v, Unit: unit})
}

func (r *report) detail(name string, v float64, unit, note string) {
	r.details = append(r.details, metric{name, v, unit, note})
}

// percentiles reports the median and the tail percentile of ms samples as
// <prefix>_p50_ms and <prefix>_p<N>_ms, each with its sample count.
func (r *report) percentiles(prefix string, ms []float64) {
	n := len(ms)
	if n == 0 {
		return
	}
	note := fmt.Sprintf("n=%d", n)
	r.detail(prefix+"_p50_ms", median(ms), "ms", note)
	if p, ok := tailPercentile(n); ok && p > 50 {
		r.detail(fmt.Sprintf("%s_p%s_ms", prefix, pctName(p)), nearestRank(ms, p), "ms", note)
	}
}

func pctName(p float64) string {
	return strings.ReplaceAll(fmt.Sprintf("%g", p), ".", "_")
}

// print writes every metric as "<workload> <metric> <value> <unit>", then
// the failures.
func (r *report) print(w io.Writer) {
	for _, group := range [][]metric{r.e2eM, r.layers, r.details} {
		for _, m := range group {
			line := fmt.Sprintf("%s %s %.6g %s", r.workload, m.Name, m.Value, m.Unit)
			if m.Note != "" {
				line += "  (" + m.Note + ")"
			}
			fmt.Fprintln(w, line)
		}
	}
	fmt.Fprintf(w, "%s attempted %d failed %d\n", r.workload, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "%s FAIL %s\n", r.workload, f)
	}
}

// coverageFloor is the least share of a traced wall the top-level spans must
// cover for the layer numbers to account for the whole.
const coverageFloor = 0.95

// layerReport turns a traced repeat into per-layer metrics. Every metric with
// a time unit is measured on every workload; layers a workload bypasses show
// up as a zero share or count instead.
func (e *env) layerReport(r *report, t *traced, untracedNS float64) {
	self := selfTimes(t.spans)
	wall := float64(t.wallNS)
	// dur is time in calls by span name: an aggregate counts its busy time,
	// not the stretch its calls were spread over.
	dur, slf, layerSelf := map[string]float64{}, map[string]float64{}, map[string]float64{}
	calls := map[string]float64{} // aggregate calls, keyed by the parent span's name
	byName := map[string][]float64{}
	names := map[int]string{}
	for _, s := range t.spans {
		names[s.ID] = s.Name
	}
	for i := range t.spans {
		s := &t.spans[i]
		d := float64(s.dur())
		if s.Calls > 0 {
			d = float64(s.BusyNS)
			calls[names[s.Parent]] += float64(s.Calls)
		}
		dur[s.Name] += d
		byName[s.Name] = append(byName[s.Name], d/1e6)
		slf[s.Name] += float64(self[s.ID])
		layerSelf[s.layer()] += float64(self[s.ID])
	}
	sum := func(m map[string]float64, keys ...string) float64 {
		var v float64
		for _, k := range keys {
			v += m[k]
		}
		return v
	}
	decoders := []string{"logsink.replay", "logsink.replay_day", "logsink.tail"}
	var readBytes int64
	for _, d := range t.readDirs {
		n, err := treeSize(d)
		if err != nil {
			r.fail("sizing %s: %v", d, err)
		}
		readBytes += n
	}
	flows := float64(t.stats.FlowsProcessed)

	r.layer("trace.new_ms", dur["trace.new"]/1e6, "ms")
	r.layer("trace.generate_s", slf["trace.generate"]/1e9, "s")
	r.layer("trace.truth_ms", dur["trace.truth"]/1e6, "ms")
	r.layer("trace.events", calls["trace.generate"], "count")
	r.layer("logsink.write_frac", sum(dur, "logsink.write", "logsink.close")/wall, "frac")
	r.layer("logsink.decode_frac", sum(slf, decoders...)/wall, "frac")
	r.layer("logsink.records", sum(calls, decoders...), "count")
	r.layer("logsink.read_mb", float64(readBytes)/(1<<20), "MB")
	r.layer("core.new_ms", dur["core.new"]/1e6, "ms")
	r.layer("core.ingest_s", dur["core.ingest"]/1e9, "s")
	r.layer("core.finalize_ms", dur["core.finalize"]/1e6, "ms")
	r.layer("core.seal_frac", sum(dur, "core.seal_day", "core.snapshot_delta")/wall, "frac")
	r.layer("core.checkpoint_frac", sum(dur, "core.encode_checkpoint", "core.restore_checkpoint", "core.encode_dataset")/wall, "frac")
	r.layer("core.checkpoint_mb", float64(t.ckptBytes)/(1<<20), "MB")
	r.layer("core.flows", flows, "count")
	r.layer("core.tap_drop_frac", ratio(float64(t.stats.FlowsTapDropped), flows+float64(t.stats.FlowsTapDropped)), "frac")
	r.layer("core.labeled_frac", ratio(flows-float64(t.stats.FlowsUnlabeled), flows), "frac")
	r.layer("stagecache.hashed_mb", float64(t.hashedBytes)/(1<<20), "MB")
	r.layer("stagecache.hit_frac", ratio(float64(t.hits), float64(t.hits+t.misses)), "frac")
	r.layer("figset.compute_ms", dur["figset.compute"]/1e6, "ms")
	r.layer("figset.render_ms", dur["figset.render"]/1e6, "ms")
	tasks := make([]string, 0, len(t.taskMS))
	for k := range t.taskMS {
		tasks = append(tasks, k)
	}
	sort.Strings(tasks)
	for _, k := range tasks {
		r.layer("figset."+k+"_ms", t.taskMS[k], "ms")
	}
	for _, l := range []string{"trace", "logsink", "core", "stagecache", "figset"} {
		r.layer(l+".self_frac", layerSelf[l]/wall, "frac")
	}
	r.layer("runtime.gc_cpu_s", t.gcS, "s")
	r.layer("runtime.alloc_mb", t.allocMB, "MB")
	cov := t.coverage()
	r.layer("trace_coverage_frac", cov, "frac")
	r.layer("trace_overhead_frac", float64(t.opNS)/untracedNS-1, "frac")
	if cov < coverageFloor {
		r.fail("top-level spans cover %.3f of the traced wall, want at least %.2f", cov, coverageFloor)
	}

	// Every span name: total and self time, with percentiles where a name
	// recurs often enough to have a tail.
	order := make([]string, 0, len(byName))
	for n := range byName {
		order = append(order, n)
	}
	sort.Strings(order)
	r.detail("traced_wall_s", wall/1e9, "s", fmt.Sprintf("%d spans", len(t.spans)))
	for _, n := range order {
		ms := byName[n]
		r.detail("span."+n+"_ms", dur[n]/1e6, "ms", fmt.Sprintf("self %.6g ms, n=%d", slf[n]/1e6, len(ms)))
		if len(ms) >= 20 {
			r.percentiles("span."+n, ms)
		}
	}
	r.spans = append(r.spans, t.spans...)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps NaN and ±Inf to 0 so a failed run still encodes as JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
