package obs

import (
	"fmt"
	"time"
)

// StageSnapshot is one stage's counters at a point in time. Timing fields
// come from the 1-in-64 sampled laps and are approximate (log2 buckets).
type StageSnapshot struct {
	Stage      string `json:"stage"`
	Events     int64  `json:"events"`
	Drops      int64  `json:"drops,omitempty"`
	Bytes      int64  `json:"bytes,omitempty"`
	TimedCount int64  `json:"timed_count,omitempty"`
	MeanNanos  int64  `json:"mean_ns,omitempty"`
	P50Nanos   int64  `json:"p50_ns,omitempty"`
	P99Nanos   int64  `json:"p99_ns,omitempty"`
}

// DecodeDropSnapshot is one decode-fault class's rejected-record count
// (records the replay guard dropped under a fault policy).
type DecodeDropSnapshot struct {
	Class string `json:"class"`
	Drops int64  `json:"drops"`
}

// ShardSnapshot is one shard's dispatch count, live queue depth, and
// transport-ring gauges, as the sharded pipeline's registered poll reports
// them. QueueDepth is denominated in events (bounded by the
// "queue_capacity" counter); RingBatches/RingCapacity are denominated in
// batches — the ring publishes whole batches, so the two use different
// units on purpose.
type ShardSnapshot struct {
	Dispatched int64 `json:"dispatched"`
	QueueDepth int   `json:"queue_depth"`
	// Ring transport gauges: current occupancy and depth in batches,
	// producer full-ring stall episodes, consumer empty-ring waits.
	RingBatches  int   `json:"ring_batches,omitempty"`
	RingCapacity int   `json:"ring_capacity,omitempty"`
	RingStalls   int64 `json:"ring_stalls,omitempty"`
	RingWaits    int64 `json:"ring_waits,omitempty"`
}

// Snapshot is a point-in-time view of the whole ingest: cumulative totals,
// rates, progress toward a known total (days of the study window), and the
// per-stage / per-shard breakdowns. Progress fills the rate and ETA fields;
// Metrics.Snapshot fills the counters.
type Snapshot struct {
	Label          string  `json:"label,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_s"`
	Events         int64   `json:"events"`
	Bytes          int64   `json:"bytes"`
	// Cumulative rates since Start; Inst* cover the last report interval.
	EventsPerSec     float64 `json:"events_per_sec"`
	BytesPerSec      float64 `json:"bytes_per_sec"`
	InstEventsPerSec float64 `json:"inst_events_per_sec,omitempty"`
	InstBytesPerSec  float64 `json:"inst_bytes_per_sec,omitempty"`
	// Done/Total are work units (study days for cmd/lockdown); ETA is the
	// linear extrapolation of Elapsed over the remaining units.
	Done       int64           `json:"done,omitempty"`
	Total      int64           `json:"total,omitempty"`
	ETASeconds float64         `json:"eta_s,omitempty"`
	Stages     []StageSnapshot `json:"stages,omitempty"`
	// DecodeDrops break rejected input records down by decode-fault class
	// (populated only when a fault policy dropped records).
	DecodeDrops []DecodeDropSnapshot `json:"decode_drops,omitempty"`
	Shards      []ShardSnapshot      `json:"shards,omitempty"`
	// Imbalance is max/mean of per-shard dispatch counts (1.0 = perfect).
	Imbalance float64 `json:"dispatch_imbalance,omitempty"`
	// Counters holds every registered cell by name (Metrics.Register): the
	// stage cache's cache_* counters (runs with a cache store), and the
	// sharded pipeline's epochs_published, epoch_pins, snapshot_bytes and
	// queue_capacity.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// siCount formats an event count or rate with k/M/G suffixes.
func siCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// siBytes formats a byte count or rate with decimal KB/MB/GB/TB suffixes.
func siBytes(v float64) string {
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.2f TB", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.2f GB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1f MB", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1f KB", v/1e3)
	default:
		return fmt.Sprintf("%.0f B", v)
	}
}

// fmtETA renders an ETA compactly (72s, 3m12s, 1h04m).
func fmtETA(sec float64) string {
	d := time.Duration(sec * float64(time.Second)).Round(time.Second)
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	case d >= 2*time.Minute:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	default:
		return fmt.Sprintf("%ds", int(d.Seconds()))
	}
}
