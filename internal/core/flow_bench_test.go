package core

import (
	"testing"

	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/trace"
	"repro/internal/universe"
)

// recording captures a generated stream in delivery order as events
// (ordering_test.go), so a benchmark can replay it without generating.
type recording struct {
	events []event
	flows  int
}

func (r *recording) Flow(f flow.Record) {
	r.flows++
	r.events = append(r.events, func(s trace.Sink) { s.Flow(f) })
}
func (r *recording) DNS(e dnssim.Entry)       { r.events = append(r.events, dnsEv(e)) }
func (r *recording) HTTPMeta(e httplog.Entry) { r.events = append(r.events, httpEv(e)) }
func (r *recording) Lease(l dhcp.Lease)       { r.events = append(r.events, leaseEv(l)) }

// BenchmarkPipelineFlow measures the ingest hot path alone: a fixed 1%
// stream of 14 days (February into March, so the midpoint path runs) is
// generated once in setup, and each iteration replays it into a fresh
// pipeline. ns/flow is the replay's wall time over its flows (the DNS,
// lease and HTTP events it interleaves included); allocations are per
// replay.
func BenchmarkPipelineFlow(b *testing.B) {
	reg, err := universe.New()
	if err != nil {
		b.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.01
	g, err := trace.New(cfg, reg)
	if err != nil {
		b.Fatal(err)
	}
	var rec recording
	if err := g.RunDays(&rec, 21, 35); err != nil {
		b.Fatal(err)
	}
	opts := Options{Key: []byte("pipeline-flow-bench-key-0123456789")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := NewPipeline(reg, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, ev := range rec.events {
			ev(p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rec.flows), "ns/flow")
}
