// Package obs is the pipeline observability layer: low-overhead atomic
// counters and sampled timing histograms for every ingest stage, a periodic
// progress reporter with text and JSON emitters, an optional expvar +
// net/http/pprof debug endpoint, and the machine-readable bench report
// (BENCH_<date>.json) that CI diffs across runs.
//
// Every method on *Metrics and *Counter is safe on a nil receiver and
// becomes a no-op: the pipeline holds a possibly-nil *Metrics and pays only
// a nil check when observability is disabled. The disabled path allocates
// nothing (verified by TestNilMetricsZeroAlloc and BenchmarkMetricsDisabled).
//
// All counters are atomics, so one Metrics may be shared by every shard of
// a core.ShardedPipeline and snapshotted concurrently from a Progress
// goroutine or the debug endpoint. A metric outside the per-stage arrays
// is a Counter held by its owner and registered by name once; Snapshot,
// and through it expvar, -progress and the bench report, reads it.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/decodeerr"
)

// Stage identifies one step of the ingest path. StageIngest is the generic
// event-intake stage every sink event passes through; the rest mirror the
// pipeline's processing order.
type Stage uint8

// Pipeline stages, in processing order.
const (
	StageIngest        Stage = iota // every sink event (flows carry bytes)
	StageTapFilter                  // tap exclusion + capture-window trim
	StageDHCPNormalize              // IP→MAC attribution + pseudonymization
	StageDNSLabel                   // IP→domain join
	StageAppsigMatch                // application signature matching
	StageSessionStitch              // social-app session stitching
	StageAggregate                  // per-device/day/app accumulation
	NumStages
)

var stageNames = [NumStages]string{
	"ingest", "tap_filter", "dhcp_normalize", "dns_label",
	"appsig_match", "session_stitch", "aggregate",
}

// String returns the stage's snake_case name (used in JSON output).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// histBuckets is the number of log2 nanosecond buckets: bucket b holds
// durations in [2^(b-1), 2^b) ns, covering 1 ns up to ~9 minutes.
const histBuckets = 40

// sampleEvery is the timing sample rate: one in sampleEvery events gets a
// full per-stage timing lap. Counters are exact; only timings are sampled.
const sampleEvery = 64

// stageCounters accumulates one stage's exact counts and sampled timings.
type stageCounters struct {
	events     atomic.Int64 // events the stage accepted
	drops      atomic.Int64 // events the stage filtered out
	bytes      atomic.Int64 // payload bytes through the stage (where meaningful)
	timedNanos atomic.Int64
	timedCount atomic.Int64
	hist       [histBuckets]atomic.Int64
}

func (c *stageCounters) observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	c.timedNanos.Add(ns)
	c.timedCount.Add(1)
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	c.hist[b].Add(1)
}

// bucketValue is the representative duration (ns) for histogram bucket b.
func bucketValue(b int) int64 {
	switch b {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return 3 << (uint(b) - 2) // midpoint of [2^(b-1), 2^b)
	}
}

// percentile returns the approximate p-quantile (0 < p < 1) in nanoseconds.
func (c *stageCounters) percentile(p float64) int64 {
	total := c.timedCount.Load()
	if total == 0 {
		return 0
	}
	rank := int64(p * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for b := 0; b < histBuckets; b++ {
		seen += c.hist[b].Load()
		if seen > rank {
			return bucketValue(b)
		}
	}
	return bucketValue(histBuckets - 1)
}

// Metrics is the shared counter set. The zero value is not usable; call
// NewMetrics. A nil *Metrics is valid everywhere and does nothing.
//
// Two kinds of metric live here. The per-stage arrays and the decode-drop
// array are indexed by the hot path and owned by Metrics. Every other
// metric is a Counter cell owned by the code that updates it and
// registered by name (Register); Snapshot reads every registered cell.
type Metrics struct {
	stages  [NumStages]stageCounters
	sampleC atomic.Int64

	// decodeDrops counts records the replay guard rejected, one counter
	// per decode-fault class (truncated / malformed / out_of_range /
	// duplicate). Together with the guard's accepted count these satisfy
	// the robustness invariant drops + accepted == offered.
	decodeDrops [decodeerr.NumClasses]atomic.Int64

	regMu     sync.Mutex // guards cells and shardPoll
	cells     map[string]*Counter
	shardPoll func() []ShardSnapshot
}

// Counter is one named metric cell: a counter (Add) or a gauge (Store).
// The code that owns the metric holds the cell as a plain field and
// registers it once with Metrics.Register. Every method is safe on a nil
// *Counter.
type Counter struct{ v atomic.Int64 }

// Add adds n to the cell.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Store sets the cell to n (gauge use).
func (c *Counter) Store(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Load returns the cell's current value (0 for a nil cell).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics { return &Metrics{} }

// Add counts one accepted event (with payload bytes, 0 when not
// meaningful) into a stage.
func (m *Metrics) Add(s Stage, bytes int64) {
	if m == nil {
		return
	}
	m.stages[s].events.Add(1)
	if bytes != 0 {
		m.stages[s].bytes.Add(bytes)
	}
}

// AddN counts n accepted events (with their combined payload bytes, 0 when
// not meaningful) into a stage in one pair of atomic updates — the
// batch-transport counterpart of Add. n <= 0 is a no-op.
func (m *Metrics) AddN(s Stage, n, bytes int64) {
	if m == nil || n <= 0 {
		return
	}
	m.stages[s].events.Add(n)
	if bytes != 0 {
		m.stages[s].bytes.Add(bytes)
	}
}

// Drop counts one event the stage filtered out.
func (m *Metrics) Drop(s Stage) {
	if m == nil {
		return
	}
	m.stages[s].drops.Add(1)
}

// DecodeDrop counts one record rejected with the given decode-fault class.
func (m *Metrics) DecodeDrop(c decodeerr.Class) {
	if m == nil || c >= decodeerr.NumClasses {
		return
	}
	m.decodeDrops[c].Add(1)
}

// DecodeDrops returns the per-class rejected-record counters.
func (m *Metrics) DecodeDrops() [decodeerr.NumClasses]int64 {
	var out [decodeerr.NumClasses]int64
	if m == nil {
		return out
	}
	for i := range m.decodeDrops {
		out[i] = m.decodeDrops[i].Load()
	}
	return out
}

// Now starts a sampled timing lap: it returns the current time for one in
// sampleEvery calls and the zero Time otherwise (or when m is nil). Pass
// the result to Lap at each stage boundary.
func (m *Metrics) Now() time.Time {
	if m == nil {
		return time.Time{}
	}
	if m.sampleC.Add(1)%sampleEvery != 0 {
		return time.Time{}
	}
	return time.Now()
}

// Lap records the time since t into the stage's histogram and returns the
// new lap start. A zero t (unsampled event, nil m) passes through untouched,
// so laps chain without branches at the call site.
func (m *Metrics) Lap(s Stage, t time.Time) time.Time {
	if m == nil || t.IsZero() {
		return t
	}
	now := time.Now()
	m.stages[s].observe(now.Sub(t))
	return now
}

// Observe records one explicit stage duration (bypassing sampling).
func (m *Metrics) Observe(s Stage, d time.Duration) {
	if m == nil {
		return
	}
	m.stages[s].observe(d)
}

// Register publishes c under name: from then on every Snapshot carries
// the cell's value in Snapshot.Counters. Registering a name again replaces
// the earlier cell.
func (m *Metrics) Register(name string, c *Counter) {
	if m == nil || c == nil {
		return
	}
	m.regMu.Lock()
	defer m.regMu.Unlock()
	if m.cells == nil {
		m.cells = make(map[string]*Counter)
	}
	m.cells[name] = c
}

// RegisterShards installs the per-shard poll: Snapshot calls it for the
// Shards rows and computes the dispatch imbalance from them. The sharded
// pipeline registers it once; a later call replaces the earlier poll.
func (m *Metrics) RegisterShards(poll func() []ShardSnapshot) {
	if m == nil {
		return
	}
	m.regMu.Lock()
	defer m.regMu.Unlock()
	m.shardPoll = poll
}

// StageCounters returns one stage's current counts (for tests and ad-hoc
// inspection; Snapshot covers the full set).
func (m *Metrics) StageCounters(s Stage) StageSnapshot {
	if m == nil {
		return StageSnapshot{Stage: s.String()}
	}
	return m.stageSnapshot(s)
}

func (m *Metrics) stageSnapshot(s Stage) StageSnapshot {
	c := &m.stages[s]
	ss := StageSnapshot{
		Stage:      s.String(),
		Events:     c.events.Load(),
		Drops:      c.drops.Load(),
		Bytes:      c.bytes.Load(),
		TimedCount: c.timedCount.Load(),
	}
	if ss.TimedCount > 0 {
		ss.MeanNanos = c.timedNanos.Load() / ss.TimedCount
		ss.P50Nanos = c.percentile(0.50)
		ss.P99Nanos = c.percentile(0.99)
	}
	return ss
}

// Events returns the total event count (StageIngest accepts).
func (m *Metrics) Events() int64 {
	if m == nil {
		return 0
	}
	return m.stages[StageIngest].events.Load()
}

// Bytes returns the total payload bytes seen at intake.
func (m *Metrics) Bytes() int64 {
	if m == nil {
		return 0
	}
	return m.stages[StageIngest].bytes.Load()
}

// Snapshot captures a point-in-time copy of every active counter and
// every registered cell. Safe to call concurrently with ingest; counters
// are read individually, so the snapshot is consistent per counter, not
// across counters.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	s.Events = m.Events()
	s.Bytes = m.Bytes()
	for st := Stage(0); st < NumStages; st++ {
		ss := m.stageSnapshot(st)
		if ss.Events == 0 && ss.Drops == 0 {
			continue
		}
		s.Stages = append(s.Stages, ss)
	}
	for c := decodeerr.Class(0); c < decodeerr.NumClasses; c++ {
		if n := m.decodeDrops[c].Load(); n > 0 {
			s.DecodeDrops = append(s.DecodeDrops, DecodeDropSnapshot{
				Class: c.String(), Drops: n,
			})
		}
	}
	m.regMu.Lock()
	poll := m.shardPoll
	if len(m.cells) > 0 {
		s.Counters = make(map[string]int64, len(m.cells))
		for name, c := range m.cells {
			s.Counters[name] = c.Load()
		}
	}
	m.regMu.Unlock()
	if poll != nil {
		s.Shards = poll()
		var sum, top int64
		for _, sh := range s.Shards {
			sum += sh.Dispatched
			top = max(top, sh.Dispatched)
		}
		if sum > 0 {
			s.Imbalance = float64(top) / (float64(sum) / float64(len(s.Shards)))
		}
	}
	return s
}
