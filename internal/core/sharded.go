package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/anonymize"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/universe"
)

// ShardedPipeline parallelizes ingest across N independent Pipeline shards.
// Flows and HTTP metadata are routed to a shard by the client device's MAC,
// so each device's entire history lands on one shard and per-device
// aggregation stays exact.
//
// DNS entries and DHCP leases never reach the shards. The dispatcher owns
// the run's one join (localJoin, the same tables a single Pipeline keeps)
// and works serially, in stream order: it folds each broadcast into the
// join and resolves each flow's and HTTP entry's admission — tap and
// window cuts, client MAC, DNS label — with the single pipeline's own
// admitFlow/admitHTTP. Every admission therefore sees exactly the join
// state a single pipeline would have had at the same stream position:
// lease-before-flow ordering, mid-stream DNS re-resolution and the
// labeler's look-ahead window hold by construction. The admission travels
// to the shard in the batch slot, and the shard runs the single pipeline's
// accounting step on it: shards hold no join state and look nothing up.
//
// Transport is batched and lock-free: the dispatcher appends events into a
// fixed-capacity open batch per shard and, when it fills (or on Flush),
// publishes the whole batch as one slot of that shard's bounded SPSC ring
// (see ring.go) — per event the cost is one array store, and per batch two
// uncontended atomics. Batches are recycled through a sync.Pool. Within a
// shard, batches and the events inside them are applied strictly FIFO.
//
// The public surface mirrors Pipeline: it implements trace.Sink (and the
// trace.BatchSink fast path), and Finalize returns a merged Dataset with
// the same devices and — field for field — the same Stats a single
// Pipeline would produce under the same key.
type ShardedPipeline struct {
	reg  *universe.Registry
	opts Options
	// pseudo is the group's keyed pseudonymizer: DeviceID derives from it
	// directly (a pure HMAC) so callers never touch shard-owned caches.
	pseudo *anonymize.Pseudonymizer
	shards []*Pipeline
	rings  []*batchRing
	done   []chan struct{}
	// open holds the per-shard batch being filled; owned by the
	// dispatcher goroutine, never touched by workers.
	open []*eventBatch
	// queued tracks per-shard in-flight events — flushed toward the
	// shard's ring (including a batch stalled on a full ring) but not yet
	// applied by the worker — for the queue-depth gauge. Bounded by
	// QueueCapacity.
	queued []atomic.Int64
	// pendDispatch counts flows routed into each shard's open batch,
	// settled into dispatched at flush time — one atomic per batch
	// instead of one per flow. Dispatcher-owned.
	pendDispatch []int64
	// dispatched counts the flows routed to each shard; read by the shard
	// poll registered with obs.
	dispatched []atomic.Int64

	// join is the run's DNS/DHCP join. Only the dispatcher goroutine
	// touches it: it writes broadcasts and reads admissions in the same
	// serial loop, so the tables need no synchronization.
	join *localJoin

	// dispStats accumulates what the dispatcher accounts itself: the
	// broadcast counters (DNS entries and leases are applied exactly once,
	// here) and the cuts for flows and HTTP entries that never reach a
	// shard; merged into the final Stats by Finalize.
	dispStats Stats
	om        *obs.Metrics
	finalized bool

	// Gauges registered with obs: snapshotBytes is the join tables'
	// approximate retained bytes, refreshed at each flush; queueCap is the
	// per-shard queue-depth bound in events, the denominator the depth
	// gauge is read against.
	snapshotBytes, queueCap obs.Counter

	// lastSealStats is the merged cumulative Stats at the last SealDay —
	// the baseline the next day's Stats delta is taken against.
	lastSealStats Stats
}

// batchCap is the fixed event capacity of one shard batch: large enough
// to amortize the ring publication to noise, small enough that a pooled
// batch (~68 KiB) stays cache- and GC-friendly.
const batchCap = 256

// queueCapacityEvents bounds the queue-depth gauge per shard: a full ring
// of batches, plus the batch the dispatcher may be stalled publishing,
// plus the batch the worker is applying — all at full batchCap.
const queueCapacityEvents = (defaultRingCap + 2) * batchCap

// eventKind tags one slot of an eventBatch.
type eventKind uint8

const (
	evFlow eventKind = iota
	evHTTP
)

// shardEvent is one batch slot, stored inline — no per-event allocation.
// adm is the admission the dispatcher resolved for the event.
type shardEvent struct {
	kind eventKind
	adm  admission
	flow flow.Record
	http httplog.Entry
}

// eventBatch is a fixed-capacity run of events bound for one shard.
type eventBatch struct {
	events [batchCap]shardEvent
	n      int
}

var batchPool = sync.Pool{New: func() any { return new(eventBatch) }}

// NewShardedPipeline builds n shards (n ≤ 0 selects GOMAXPROCS). All shards
// share one pseudonymization key so device IDs are globally consistent; a
// nil key draws one random key for the whole group.
func NewShardedPipeline(reg *universe.Registry, opts Options, n int) (*ShardedPipeline, error) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	var pseudo *anonymize.Pseudonymizer
	var err error
	if opts.Key == nil {
		pseudo, err = anonymize.NewRandomPseudonymizer()
	} else {
		pseudo, err = anonymize.NewPseudonymizer(opts.Key)
	}
	if err != nil {
		return nil, err
	}
	opts.Key = pseudo.Key()
	sp := &ShardedPipeline{
		reg:          reg,
		opts:         opts,
		pseudo:       pseudo,
		join:         newLocalJoin(),
		queued:       make([]atomic.Int64, n),
		pendDispatch: make([]int64, n),
		dispatched:   make([]atomic.Int64, n),
		om:           opts.Obs,
	}
	for i := 0; i < n; i++ {
		p, err := newPipeline(reg, opts)
		if err != nil {
			return nil, err
		}
		ring := newBatchRing(defaultRingCap)
		done := make(chan struct{})
		sp.shards = append(sp.shards, p)
		sp.rings = append(sp.rings, ring)
		sp.done = append(sp.done, done)
		sp.open = append(sp.open, batchPool.Get().(*eventBatch))
		go func(p *Pipeline, shard int, ring *batchRing, done chan struct{}) {
			defer close(done)
			for {
				b, ok := ring.pop()
				if !ok {
					return
				}
				for i := 0; i < b.n; i++ {
					ev := &b.events[i]
					switch ev.kind {
					case evFlow:
						p.account(&ev.flow, &ev.adm, p.om.Now())
					case evHTTP:
						p.accountHTTP(&ev.http, &ev.adm)
					}
				}
				sp.queued[shard].Add(-int64(b.n))
				b.n = 0
				batchPool.Put(b)
			}
		}(p, i, ring, done)
	}
	// Shards share the dispatcher's Metrics: counters are atomic, and the
	// shard poll (registered once every ring exists) gives snapshots a
	// live view of transport backlog.
	sp.queueCap.Store(queueCapacityEvents)
	sp.om.Register("snapshot_bytes", &sp.snapshotBytes)
	sp.om.Register("queue_capacity", &sp.queueCap)
	sp.om.RegisterShards(sp.ShardRows)
	return sp, nil
}

// Shards returns the shard count.
func (sp *ShardedPipeline) Shards() int { return len(sp.shards) }

// ShardRows returns one row per shard: flows dispatched, in-flight events
// (flushed toward the shard's ring, including a batch the dispatcher is
// stalled publishing into a full ring, but not yet applied by its worker;
// events still in the dispatcher's open batches are not included, since
// those buffers are dispatcher-owned), and the ring's transport gauges.
// Each queue depth is bounded by QueueCapacity. Safe to call concurrently
// with ingest.
func (sp *ShardedPipeline) ShardRows() []obs.ShardSnapshot {
	out := make([]obs.ShardSnapshot, len(sp.rings))
	for i, r := range sp.rings {
		out[i] = obs.ShardSnapshot{
			Dispatched:   sp.dispatched[i].Load(),
			QueueDepth:   int(sp.queued[i].Load()),
			RingBatches:  r.len(),
			RingCapacity: r.capacity(),
			RingStalls:   r.stallCount(),
			RingWaits:    r.waitCount(),
		}
	}
	return out
}

// QueueCapacity returns the per-shard upper bound on ShardRows queue
// depths, denominated in events: ring slots plus the two hand-off batches
// (one stalled at the producer, one applying at the consumer), each at
// full batchCap.
func (sp *ShardedPipeline) QueueCapacity() int { return queueCapacityEvents }

// DeviceID exposes the shared pseudonym mapping (all shards agree). It
// reads no shard state, so it is safe to call while the shards ingest.
func (sp *ShardedPipeline) DeviceID(m packet.MAC) anonymize.DeviceID {
	return sp.pseudo.Device(m)
}

// slot returns the next free slot of a shard's open batch. The caller
// must fill the slot's kind, admission and payload before the next
// dispatcher operation; writing fields in place (rather than copying a
// constructed shardEvent) keeps the per-event cost to the payload bytes
// actually used. Slots are reused across pooled batches, so unrelated fields may
// hold stale data — the kind tag guards all access.
func (sp *ShardedPipeline) slot(shard int) *shardEvent {
	b := sp.open[shard]
	if b.n == batchCap {
		// Flush lazily, before handing out a slot, never after: once a
		// batch is in the ring the worker owns it and the dispatcher
		// must not touch its slots again.
		sp.flushShard(shard)
		b = sp.open[shard]
	}
	ev := &b.events[b.n]
	b.n++
	return ev
}

// flushShard refreshes the snapshot-size gauge, then publishes the
// shard's open batch into its ring and starts a fresh one. The queued
// gauge is raised before the (possibly stalling) ring push so the events
// are never invisible in flight.
func (sp *ShardedPipeline) flushShard(shard int) {
	sp.snapshotBytes.Store(sp.join.retainedBytes())
	b := sp.open[shard]
	if b.n == 0 {
		return
	}
	sp.queued[shard].Add(int64(b.n))
	sp.rings[shard].push(b)
	sp.open[shard] = batchPool.Get().(*eventBatch)
	if n := sp.pendDispatch[shard]; n > 0 {
		sp.dispatched[shard].Add(n)
		sp.pendDispatch[shard] = 0
	}
}

// Flush publishes every open batch to its shard's ring, making all
// previously accepted events visible to the workers. The generator calls
// this at trace day boundaries (via trace.BatchSink) and Finalize calls it
// before draining; callers replaying live streams may call it at any
// stream boundary. Must not be called after Finalize.
func (sp *ShardedPipeline) Flush() {
	for i := range sp.open {
		sp.flushShard(i)
	}
}

// Lease folds the binding into the dispatcher's join. No per-shard work:
// the dispatcher resolves every client MAC itself.
func (sp *ShardedPipeline) Lease(l dhcp.Lease) {
	sp.join.observeLease(l)
	sp.dispStats.Leases++
	sp.om.Add(obs.StageIngest, 0)
}

// DNS folds a resolver entry into the dispatcher's join.
func (sp *ShardedPipeline) DNS(e dnssim.Entry) {
	sp.join.observeDNS(e)
	sp.dispStats.DNSEntries++
	sp.om.Add(obs.StageIngest, 0)
}

// Flow routes one flow to its device's shard with its admission, or
// settles its cut here. Cut flows never reach a shard; admitted ones are
// counted at their target shard's intake.
func (sp *ShardedPipeline) Flow(r flow.Record) { sp.routeFlow(&r) }

// routeFlow admits one flow against the join as of its stream position,
// then copies it with its admission into the target shard's open batch,
// or settles the cut.
func (sp *ShardedPipeline) routeFlow(r *flow.Record) {
	a := admitFlow(sp.join, sp.reg, !sp.opts.DisableTapFilter, r)
	if a.cut != admitted {
		sp.dispStats.intakeFlow(sp.om, r.TotalBytes(), a.cut)
		return
	}
	shard := macShard(a.mac, len(sp.shards))
	ev := sp.slot(shard)
	ev.kind = evFlow
	ev.adm = a
	ev.flow = *r
	sp.pendDispatch[shard]++
}

// HTTPMeta routes metadata to its device's shard, or counts an entry with
// no client MAC here — merged Stats.HTTPEntries must equal a single
// pipeline's.
func (sp *ShardedPipeline) HTTPMeta(e httplog.Entry) { sp.routeHTTP(&e) }

func (sp *ShardedPipeline) routeHTTP(e *httplog.Entry) {
	a := admitHTTP(sp.join, e)
	if a.cut != admitted {
		sp.dispStats.intakeHTTP(sp.om, a.cut)
		return
	}
	ev := sp.slot(macShard(a.mac, len(sp.shards)))
	ev.kind = evHTTP
	ev.adm = a
	ev.http = *e
}

// EventBatch implements trace.BatchSink: dispatch a time-ordered run of
// events, one at a time in stream order. The incoming slice is only
// borrowed — routed events are copied into shard batches, broadcasts into
// the join, before returning.
func (sp *ShardedPipeline) EventBatch(events []trace.Event) {
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case trace.EventFlow:
			sp.routeFlow(&ev.Flow)
		case trace.EventDNS:
			sp.DNS(ev.DNS)
		case trace.EventHTTP:
			sp.routeHTTP(&ev.HTTP)
		case trace.EventLease:
			sp.Lease(ev.Lease)
		}
	}
}

// macShard hashes a MAC to a shard index.
func macShard(mac packet.MAC, n int) int {
	h := uint64(mac[0])<<40 | uint64(mac[1])<<32 | uint64(mac[2])<<24 |
		uint64(mac[3])<<16 | uint64(mac[4])<<8 | uint64(mac[5])
	h ^= h >> 17
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return int(h % uint64(n))
}

// Finalize flushes the open batches, drains every shard, and merges their
// datasets. Must be called exactly once; the ShardedPipeline must not be
// fed afterwards.
//
// Stats merge policy, per field:
//
//   - summed: per-flow / per-entry counters (FlowsProcessed, FlowsTapDropped,
//     FlowsUnattributed, FlowsUnlabeled, FlowsOutOfWindow, BytesProcessed,
//     HTTPEntries). Each flow or HTTP entry is counted by exactly one
//     intake — its shard's if admitted, the dispatcher's if cut — so shard
//     and dispatcher counts add.
//   - dispatcher-owned: broadcast counters (DNSEntries, Leases). The
//     dispatcher folds each broadcast into its join exactly once and
//     counts it there; shards have no join tables to apply one to.
func (sp *ShardedPipeline) Finalize() *Dataset {
	if sp.finalized {
		panic("core: Finalize called twice")
	}
	sp.finalized = true
	sp.Flush()
	for i := range sp.rings {
		sp.rings[i].close()
	}
	for i := range sp.done {
		<-sp.done[i]
	}
	return sp.merge((*Pipeline).Finalize)
}

// Quiesce publishes every open batch and waits until the shard workers
// have applied everything in flight, leaving the shards idle (parked in
// ring.pop) but alive. The wait is on the per-shard queued gauges: a
// worker decrements its gauge with an atomic add only after applying the
// whole batch, and the dispatcher's load observing zero synchronizes with
// that decrement, so every shard-state write the batch made is visible to
// the caller. Must be called from the ingest goroutine (the dispatcher);
// nothing else may feed events concurrently.
func (sp *ShardedPipeline) Quiesce() {
	sp.Flush()
	for i := range sp.queued {
		for sp.queued[i].Load() != 0 {
			runtime.Gosched()
		}
	}
}

// Snapshot quiesces the shards and merges their point-in-time Snapshots
// into one immutable Dataset, without closing rings or workers — ingest
// may resume immediately afterwards. Same merge policy as Finalize. Must
// be called from the ingest goroutine: the workers are parked (no batch
// is in flight after Quiesce) and the dispatcher is here, so no one
// mutates shard state while it is read.
func (sp *ShardedPipeline) Snapshot() *Dataset {
	if sp.finalized {
		panic("core: Snapshot after Finalize")
	}
	sp.Quiesce()
	return sp.merge((*Pipeline).Snapshot)
}

// SnapshotDelta is the sharded counterpart of Pipeline.SnapshotDelta:
// quiesce, have each shard re-render the touched devices it owns (devices
// are shard-disjoint, so the union covers the touched set exactly once),
// and overlay them onto the previous snapshot. Must be called from the
// ingest goroutine; ingest may resume immediately afterwards.
func (sp *ShardedPipeline) SnapshotDelta(prev *Dataset, dp *DayPartial) *Dataset {
	if sp.finalized {
		panic("core: SnapshotDelta after Finalize")
	}
	if prev == nil {
		return sp.Snapshot()
	}
	sp.Quiesce()
	var fresh []*DeviceData
	for _, p := range sp.shards {
		fresh = append(fresh, p.renderTouched(dp.Touched)...)
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].ID < fresh[j].ID })
	return mergeDelta(prev, fresh, sp.statsNow())
}

// merge combines per-shard datasets (rendered by get — Finalize or
// Snapshot) under the documented Stats merge policy (statsNow). Both
// callers have the shards quiescent or finished.
func (sp *ShardedPipeline) merge(get func(*Pipeline) *Dataset) *Dataset {
	merged := &Dataset{byID: map[anonymize.DeviceID]*DeviceData{}}
	for _, p := range sp.shards {
		ds := get(p)
		merged.Devices = append(merged.Devices, ds.Devices...)
		for id, d := range ds.byID {
			merged.byID[id] = d
		}
	}
	merged.Stats = sp.statsNow()
	sort.Slice(merged.Devices, func(i, j int) bool { return merged.Devices[i].ID < merged.Devices[j].ID })
	return merged
}
