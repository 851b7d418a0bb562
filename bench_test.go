package lockdownrepro

// One benchmark per figure and headline result of the paper, plus
// end-to-end throughput benchmarks for the pipeline and generator. Each
// figure benchmark measures regenerating that figure's series from the
// finalized dataset; the fixture (generate + ingest at 2% scale) is built
// once and shared.
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"sync"
	"testing"

	"repro/internal/anonymize"
	"repro/internal/campus"
	"repro/internal/core"
	"repro/internal/devclass"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/universe"
)

const benchScale = 0.02

var (
	benchOnce  sync.Once
	benchDS    *core.Dataset
	benchTruth map[anonymize.DeviceID]devclass.Type
	benchErr   error
)

func benchDataset(b *testing.B) (*core.Dataset, map[anonymize.DeviceID]devclass.Type) {
	b.Helper()
	benchOnce.Do(func() {
		reg, err := universe.New()
		if err != nil {
			benchErr = err
			return
		}
		cfg := trace.DefaultConfig()
		cfg.Scale = benchScale
		gen, err := trace.New(cfg, reg)
		if err != nil {
			benchErr = err
			return
		}
		pipe, err := core.NewPipeline(reg, core.Options{Key: []byte("benchmark-fixture-key-0123456789ab")})
		if err != nil {
			benchErr = err
			return
		}
		if err := gen.Run(pipe); err != nil {
			benchErr = err
			return
		}
		truth := make(map[anonymize.DeviceID]devclass.Type, len(gen.Devices()))
		for _, d := range gen.Devices() {
			truth[pipe.DeviceID(d.MAC)] = d.Kind.TruthType()
		}
		benchDS = pipe.Finalize()
		benchTruth = truth
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS, benchTruth
}

// BenchmarkFig1ActiveDevices regenerates Figure 1 (active devices per day
// by device type; peak 32,019 / low 4,973 at paper scale).
func BenchmarkFig1ActiveDevices(b *testing.B) {
	ds, _ := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(ds)
		if r.Peak == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig2BytesPerDevice regenerates Figure 2 (mean and median bytes
// per active device per day by type).
func BenchmarkFig2BytesPerDevice(b *testing.B) {
	ds, _ := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2(ds)
		if len(r.Median) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig3HourOfWeek regenerates Figure 3 (normalized median traffic
// per device per hour of week for the four sample weeks).
func BenchmarkFig3HourOfWeek(b *testing.B) {
	ds, _ := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(ds)
		if r.Divisor <= 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig4PopulationSplit regenerates Figure 4 (median bytes per
// device excluding Zoom, international vs domestic).
func BenchmarkFig4PopulationSplit(b *testing.B) {
	ds, _ := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(ds)
		if len(r.Median) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig5Zoom regenerates Figure 5 (daily aggregate Zoom traffic).
func BenchmarkFig5Zoom(b *testing.B) {
	ds, _ := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(ds)
		if r.Peak == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig6SocialMedia regenerates Figure 6 (monthly mobile session
// durations for Facebook/Instagram/TikTok by population).
func BenchmarkFig6SocialMedia(b *testing.B) {
	ds, _ := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6(ds)
		if len(r.Summary) != 3 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig7Steam regenerates Figure 7 (monthly Steam bytes and
// connections by population).
func BenchmarkFig7Steam(b *testing.B) {
	ds, _ := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(ds)
		if len(r.Bytes) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig8Switch regenerates Figure 8 (Switch gameplay moving average
// and the 1,097 → 267 device counts).
func BenchmarkFig8Switch(b *testing.B) {
	ds, _ := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(ds)
		if r.PreShutdown == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkHeadlineStats regenerates §4.1 (+58% traffic, +34% distinct
// sites, weekend-dip persistence).
func BenchmarkHeadlineStats(b *testing.B) {
	ds, _ := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Headline(ds)
		if r.PostShutdownUsers == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkPopulationSplit regenerates §4.2 (1,022 international devices,
// 18% of identified).
func BenchmarkPopulationSplit(b *testing.B) {
	ds, _ := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Population(ds)
		if r.PostShutdownUsers == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkClassifierAccuracy regenerates §3's 100-device review
// (84 correct / 14 omissions / 2 affirmative errors).
func BenchmarkClassifierAccuracy(b *testing.B) {
	ds, truth := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Accuracy(ds, truth, 100, int64(i))
		if r.Sampled == 0 {
			b.Fatal("empty sample")
		}
	}
}

// BenchmarkPipelineThroughput measures the streaming ingest path: one
// generated study day through the full pipeline (normalization, labeling,
// signatures, aggregation).
func BenchmarkPipelineThroughput(b *testing.B) {
	reg, err := universe.New()
	if err != nil {
		b.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = benchScale
	gen, err := trace.New(cfg, reg)
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := core.NewPipeline(reg, core.Options{Key: []byte("throughput-bench-key-0123456789abc")})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day := campus.Day(i % campus.NumDays)
		if err := gen.RunDays(pipe, day, day+1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := pipe.Stats()
	b.ReportMetric(float64(st.FlowsProcessed)/float64(b.N), "flows/day")
}

// BenchmarkPipelineThroughputObserved is BenchmarkPipelineThroughput with
// the observability layer enabled — the delta between the two is the
// instrumentation cost (counters every flow, timings 1-in-64 sampled).
// BenchmarkPipelineThroughput itself runs with a nil Metrics and so also
// measures the disabled fast path.
func BenchmarkPipelineThroughputObserved(b *testing.B) {
	reg, err := universe.New()
	if err != nil {
		b.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = benchScale
	gen, err := trace.New(cfg, reg)
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := core.NewPipeline(reg, core.Options{
		Key: []byte("throughput-bench-key-0123456789abc"),
		Obs: obs.NewMetrics(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day := campus.Day(i % campus.NumDays)
		if err := gen.RunDays(pipe, day, day+1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := pipe.Stats()
	b.ReportMetric(float64(st.FlowsProcessed)/float64(b.N), "flows/day")
}

// BenchmarkGenerateOnly measures the synthetic workload generator alone.
func BenchmarkGenerateOnly(b *testing.B) {
	reg, err := universe.New()
	if err != nil {
		b.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = benchScale
	gen, err := trace.New(cfg, reg)
	if err != nil {
		b.Fatal(err)
	}
	sink := nullSink{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day := campus.Day(i % campus.NumDays)
		if err := gen.RunDays(sink, day, day+1); err != nil {
			b.Fatal(err)
		}
	}
}

type nullSink struct{}

func (nullSink) Flow(flow.Record)       {}
func (nullSink) DNS(dnssim.Entry)       {}
func (nullSink) HTTPMeta(httplog.Entry) {}
func (nullSink) Lease(dhcp.Lease)       {}

// The ingest-only benchmark below records a slice of generated days once
// and replays it, so it measures pipeline work alone with generation off
// the clock.

const (
	benchIngestFrom = campus.Day(60) // online term: peak traffic mix
	benchIngestTo   = campus.Day(64)
)

// recordedEvent replays one recorded event into a sink.
type recordedEvent func(trace.Sink)

var (
	benchEventsOnce sync.Once
	benchEvents     []recordedEvent
	benchEventsErr  error
)

type recordingSink struct{ events *[]recordedEvent }

func (s recordingSink) Flow(r flow.Record) {
	*s.events = append(*s.events, func(k trace.Sink) { k.Flow(r) })
}
func (s recordingSink) DNS(e dnssim.Entry) {
	*s.events = append(*s.events, func(k trace.Sink) { k.DNS(e) })
}
func (s recordingSink) HTTPMeta(e httplog.Entry) {
	*s.events = append(*s.events, func(k trace.Sink) { k.HTTPMeta(e) })
}
func (s recordingSink) Lease(l dhcp.Lease) {
	*s.events = append(*s.events, func(k trace.Sink) { k.Lease(l) })
}

func ingestEvents(b *testing.B) []recordedEvent {
	b.Helper()
	benchEventsOnce.Do(func() {
		reg, err := universe.New()
		if err != nil {
			benchEventsErr = err
			return
		}
		cfg := trace.DefaultConfig()
		cfg.Scale = benchScale
		gen, err := trace.New(cfg, reg)
		if err != nil {
			benchEventsErr = err
			return
		}
		benchEventsErr = gen.RunDays(recordingSink{events: &benchEvents}, benchIngestFrom, benchIngestTo)
	})
	if benchEventsErr != nil {
		b.Fatal(benchEventsErr)
	}
	return benchEvents
}

// BenchmarkIngestEventsSingle replays the recorded stream through one
// Pipeline — the single-core ingest ceiling.
func BenchmarkIngestEventsSingle(b *testing.B) {
	events := ingestEvents(b)
	reg, err := universe.New()
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := core.NewPipeline(reg, core.Options{Key: []byte("ingest-bench-key-0123456789abcdef00")})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range events {
			ev(pipe)
		}
	}
	b.StopTimer()
	reportEventRate(b, len(events))
}

func reportEventRate(b *testing.B, perOp int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(perOp)*float64(b.N)/s, "events/sec")
	}
}
