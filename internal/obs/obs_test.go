package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounters checks exact event/drop/byte accounting from many
// goroutines — run under -race this is the layer's core safety claim.
func TestCounters(t *testing.T) {
	m := NewMetrics()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Add(StageIngest, 100)
				m.Add(StageAggregate, 100)
				if i%4 == 0 {
					m.Drop(StageTapFilter)
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Events(); got != workers*per {
		t.Errorf("Events = %d, want %d", got, workers*per)
	}
	if got := m.Bytes(); got != workers*per*100 {
		t.Errorf("Bytes = %d, want %d", got, workers*per*100)
	}
	agg := m.StageCounters(StageAggregate)
	if agg.Events != workers*per || agg.Bytes != workers*per*100 {
		t.Errorf("aggregate = %+v, want %d events / %d bytes", agg, workers*per, workers*per*100)
	}
	if got := m.StageCounters(StageTapFilter).Drops; got != workers*per/4 {
		t.Errorf("tap drops = %d, want %d", got, workers*per/4)
	}
}

// TestSnapshotDuringIngest exercises concurrent Snapshot vs ingest (the
// Progress goroutine's access pattern) for the race detector.
func TestSnapshotDuringIngest(t *testing.T) {
	m := NewMetrics()
	var dispatched [4]Counter
	m.RegisterShards(func() []ShardSnapshot {
		rows := make([]ShardSnapshot, len(dispatched))
		for i := range rows {
			rows[i] = ShardSnapshot{Dispatched: dispatched[i].Load(), QueueDepth: i + 1}
		}
		return rows
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var late Counter
	go func() {
		defer wg.Done()
		// Registration races the snapshots below, as a pipeline built
		// while the debug endpoint is already serving does.
		m.Register("late", &late)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				m.Add(StageIngest, 1)
				late.Add(1)
				dispatched[i%4].Add(1)
				m.Lap(StageAggregate, m.Now())
			}
		}
	}()
	for i := 0; i < 100; i++ {
		s := m.Snapshot()
		if len(s.Shards) != 4 {
			t.Fatalf("shards = %d, want 4", len(s.Shards))
		}
	}
	close(stop)
	wg.Wait()
	s := m.Snapshot()
	var sum int64
	for _, sh := range s.Shards {
		sum += sh.Dispatched
	}
	if sum != s.Events {
		t.Errorf("dispatched sum %d != events %d", sum, s.Events)
	}
	if s.Counters["late"] != s.Events {
		t.Errorf("late cell = %d, want %d (one per event)", s.Counters["late"], s.Events)
	}
	if s.Shards[2].QueueDepth != 3 {
		t.Errorf("queue depth = %d, want 3", s.Shards[2].QueueDepth)
	}
}

// TestRegisteredCells: a registered cell appears in every Snapshot under
// its name with its live value (zero included), a second registration of
// the name replaces the first, a nil cell registers nothing, and the
// cells serialize under the one "counters" object.
func TestRegisteredCells(t *testing.T) {
	m := NewMetrics()
	if s := m.Snapshot(); s.Counters != nil {
		t.Fatalf("no cells registered, Counters = %v", s.Counters)
	}
	var hits, pins, replaced Counter
	m.Register("cache_hits", &hits)
	m.Register("epoch_pins", &replaced)
	m.Register("epoch_pins", &pins)
	m.Register("nil_cell", nil)
	hits.Add(3)
	pins.Store(7)
	replaced.Add(100)
	s := m.Snapshot()
	want := map[string]int64{"cache_hits": 3, "epoch_pins": 7}
	if !reflect.DeepEqual(s.Counters, want) {
		t.Fatalf("Counters = %v, want %v", s.Counters, want)
	}
	enc, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(enc), `"counters":{"cache_hits":3,"epoch_pins":7}`) {
		t.Errorf("JSON lacks the counters object: %s", enc)
	}
}

// TestNilMetricsNoOp: every method must be callable on a nil receiver.
func TestNilMetricsNoOp(t *testing.T) {
	var m *Metrics
	m.Add(StageIngest, 10)
	m.Drop(StageTapFilter)
	m.Observe(StageAggregate, time.Millisecond)
	m.Register("x", &Counter{})
	m.RegisterShards(func() []ShardSnapshot { return nil })
	var c *Counter
	c.Add(1)
	c.Store(2)
	if c.Load() != 0 {
		t.Error("nil Counter should read 0")
	}
	if ts := m.Now(); !ts.IsZero() {
		t.Error("nil Now() should return zero time")
	}
	if ts := m.Lap(StageAggregate, time.Time{}); !ts.IsZero() {
		t.Error("nil Lap() should pass zero time through")
	}
	if m.Events() != 0 || m.Bytes() != 0 {
		t.Error("nil counters should read 0")
	}
	if s := m.Snapshot(); s.Events != 0 || len(s.Stages) != 0 {
		t.Errorf("nil Snapshot = %+v, want zero", s)
	}
	var p *Progress
	p.SetLabel("x")
	p.SetTotal(1)
	p.SetDone(1)
	p.Start()
	p.Stop()
	if s := p.Snapshot(); s.Events != 0 {
		t.Error("nil Progress snapshot should be zero")
	}
}

// TestNilMetricsZeroAlloc is the disabled-path contract: the hot-path call
// sequence on a nil Metrics, a nil Counter, and registration on a nil
// Metrics allocate nothing.
func TestNilMetricsZeroAlloc(t *testing.T) {
	var m *Metrics
	var c *Counter
	cell := new(Counter)
	allocs := testing.AllocsPerRun(1000, func() {
		ts := m.Now()
		m.Add(StageIngest, 1500)
		ts = m.Lap(StageTapFilter, ts)
		m.Add(StageDHCPNormalize, 0)
		ts = m.Lap(StageDHCPNormalize, ts)
		m.Drop(StageDNSLabel)
		c.Add(3)
		c.Store(c.Load())
		m.Register("cache_hits", c)
		m.Register("epoch_pins", cell)
		m.Lap(StageAggregate, ts)
	})
	if allocs != 0 {
		t.Errorf("nil-path allocs/op = %v, want 0", allocs)
	}
}

// BenchmarkMetricsDisabled measures the nil fast path (must report 0 B/op).
func BenchmarkMetricsDisabled(b *testing.B) {
	var m *Metrics
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := m.Now()
		m.Add(StageIngest, 1500)
		ts = m.Lap(StageTapFilter, ts)
		m.Add(StageAggregate, 1500)
		m.Lap(StageAggregate, ts)
	}
}

// BenchmarkMetricsEnabled measures the instrumented path for reference.
func BenchmarkMetricsEnabled(b *testing.B) {
	m := NewMetrics()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := m.Now()
		m.Add(StageIngest, 1500)
		ts = m.Lap(StageTapFilter, ts)
		m.Add(StageAggregate, 1500)
		m.Lap(StageAggregate, ts)
	}
}

func TestTimingHistogram(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 1000; i++ {
		m.Observe(StageDNSLabel, 100*time.Microsecond)
	}
	m.Observe(StageDNSLabel, 50*time.Millisecond)
	ss := m.StageCounters(StageDNSLabel)
	if ss.TimedCount != 1001 {
		t.Fatalf("timed count = %d, want 1001", ss.TimedCount)
	}
	// p50 should land in the 100µs log2 bucket [65.5µs, 131µs); p99 too.
	if ss.P50Nanos < 50_000 || ss.P50Nanos > 200_000 {
		t.Errorf("p50 = %dns, want ≈100µs", ss.P50Nanos)
	}
	if ss.MeanNanos < 100_000 {
		t.Errorf("mean = %dns, want ≥100µs", ss.MeanNanos)
	}
}

func TestSampledLaps(t *testing.T) {
	m := NewMetrics()
	sampled := 0
	for i := 0; i < 10*sampleEvery; i++ {
		ts := m.Now()
		if !ts.IsZero() {
			sampled++
		}
		m.Lap(StageAggregate, ts)
	}
	if sampled != 10 {
		t.Errorf("sampled %d of %d, want 10", sampled, 10*sampleEvery)
	}
	if got := m.StageCounters(StageAggregate).TimedCount; got != 10 {
		t.Errorf("timed count = %d, want 10", got)
	}
}

func TestStageString(t *testing.T) {
	if StageDHCPNormalize.String() != "dhcp_normalize" {
		t.Errorf("got %q", StageDHCPNormalize.String())
	}
	if Stage(250).String() != "unknown" {
		t.Errorf("out-of-range stage should be unknown")
	}
}
