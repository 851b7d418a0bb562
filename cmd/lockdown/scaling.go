package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/campus"
	"repro/internal/core"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/universe"
)

// The -measure-scaling window: five busy pandemic-era days, enough events
// at the default CI scale (~5%) for stable rates without dominating the
// harness run.
const (
	scalingFromDay = 60
	scalingToDay   = 64
)

// scalingMinElapsed is the minimum measured wall time per pipeline
// configuration; the recorded window is replayed repeatedly (through a
// fresh pipeline each time) until the accumulated time clears it, so rates
// stay stable even when one replay finishes in tens of milliseconds.
const scalingMinElapsed = 250 * time.Millisecond

// eventRecorder captures a generated event stream for repeated replay.
type eventRecorder struct{ events []trace.Event }

func (r *eventRecorder) Flow(f flow.Record) {
	r.events = append(r.events, trace.Event{Kind: trace.EventFlow, Flow: f})
}
func (r *eventRecorder) DNS(e dnssim.Entry) {
	r.events = append(r.events, trace.Event{Kind: trace.EventDNS, DNS: e})
}
func (r *eventRecorder) HTTPMeta(e httplog.Entry) {
	r.events = append(r.events, trace.Event{Kind: trace.EventHTTP, HTTP: e})
}
func (r *eventRecorder) Lease(l dhcp.Lease) {
	r.events = append(r.events, trace.Event{Kind: trace.EventLease, Lease: l})
}

// measureScaling produces the bench report's scaling reference rates: the
// same recorded event window replayed through a fresh single pipeline and
// a fresh shards-way sharded pipeline, events per second each. Replays use
// the batched fast path in the same run lengths the generator emits, so
// the comparison isolates pipeline architecture, not delivery style. The
// timed span covers feed through Finalize — a sharded pipeline hasn't
// processed an event until its shards drain, and excluding the drain would
// flatter exactly the configuration under test.
func measureScaling(reg *universe.Registry, cfg config, shards int, statusW io.Writer) (singleRate, shardedRate float64, err error) {
	if shards < 2 {
		return 0, 0, fmt.Errorf("-measure-scaling needs -shards ≥ 2 (got %d)", shards)
	}
	gen, err := trace.New(trace.ScaledConfig(cfg.Scale, cfg.Seed), reg)
	if err != nil {
		return 0, 0, err
	}
	rec := &eventRecorder{}
	if err := gen.RunDays(rec, campus.Day(scalingFromDay), campus.Day(scalingToDay)); err != nil {
		return 0, 0, err
	}
	if len(rec.events) == 0 {
		return 0, 0, fmt.Errorf("scaling window recorded no events")
	}

	opts := core.Options{Key: cfg.Key}
	rate := func(n int) (float64, error) {
		var elapsed time.Duration
		var events int64
		for elapsed < scalingMinElapsed {
			pipe, err := runner.NewPipeline(reg, opts, n)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			if bs, ok := pipe.(trace.BatchSink); ok {
				rest := rec.events
				for len(rest) > 0 {
					n := min(1024, len(rest))
					bs.EventBatch(rest[:n])
					rest = rest[n:]
				}
				bs.Flush()
			} else {
				// The single pipeline has no batched ingress; per-event
				// delivery is exactly how the generator feeds it.
				for i := range rec.events {
					rec.events[i].Deliver(pipe)
				}
			}
			pipe.Finalize()
			elapsed += time.Since(t0)
			events += int64(len(rec.events))
		}
		return float64(events) / elapsed.Seconds(), nil
	}

	singleRate, err = rate(1)
	if err != nil {
		return 0, 0, err
	}
	shardedRate, err = rate(shards)
	if err != nil {
		return 0, 0, err
	}
	fmt.Fprintf(statusW, "scaling ref (days %d–%d, %d events): single %.0f ev/s, %d-shard %.0f ev/s, efficiency %.3f\n",
		scalingFromDay, scalingToDay, len(rec.events),
		singleRate, shards, shardedRate,
		shardedRate/singleRate/float64(shards))
	return singleRate, shardedRate, nil
}
