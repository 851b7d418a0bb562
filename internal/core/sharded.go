package core

import (
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
// DNS entries and DHCP leases are NOT broadcast to the shards. The
// dispatcher applies each of them exactly once to a pair of shared,
// immutable, epoch-versioned join stores (dnssim.LabelStore,
// dhcp.LeaseStore) that every shard reads concurrently — RCU-style: the
// dispatcher is the single writer, batching broadcast mutations into the
// stores as an append-only delta tagged with a monotonically increasing
// sequence number, and sealing a new epoch at batch boundaries (an O(delta)
// publication — the copy-on-write cells share all earlier records
// structurally and publish through atomic pointers). Each routed event
// carries the broadcast sequence number current when it was enqueued, and
// its shard resolves the DNS/DHCP joins pinned to that number, so a shard
// sees exactly the join state a single pipeline would have had at the same
// position of the event stream: lease-before-flow ordering — and the
// subtler DNS cases (re-resolution to a new domain mid-batch, the
// labeler's look-ahead window) — hold by construction rather than by
// replaying every mutation once per shard.
//
// The dispatch side itself is pipelined for multi-core ingest. Routing
// decisions (the lease lookup, the tap/window cuts, the shard hash) are
// pure functions of (event, pinned sequence number), so the batched intake
// path fans them out over parallel decode/route workers while a single
// sequencer stage — the dispatcher goroutine — keeps everything
// order-sensitive serial: sequence-number assignment, broadcast
// application, batch placement, counter settlement (see route.go). The
// dispatcher routes against the same shared lease store the shards read
// (pinned the same way), so there is exactly one lease index per run.
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
	// joins[i] is shard i's pinned view over the shared stores; owned by
	// that shard's worker goroutine after construction.
	joins []*snapshotJoin
	rings []*batchRing
	done  []chan struct{}
	// open holds the per-shard batch being filled; owned by the
	// dispatcher goroutine, never touched by workers.
	open []*eventBatch
	// queued tracks per-shard in-flight events — flushed toward the
	// shard's ring (including a batch stalled on a full ring) but not yet
	// applied by the worker — for the queue-depth gauge. Bounded by
	// QueueCapacity. Epoch publications are not events and never count
	// here.
	queued []atomic.Int64
	// pendDispatch counts flows routed into each shard's open batch,
	// settled into dispatched at flush time — one atomic per batch
	// instead of one per flow. Dispatcher-owned: the parallel route
	// workers only *decide* shards (phase B); placement, and with it this
	// counter, stays on the sequencer (phase C), so the
	// settle-once-per-batch invariant survives the multi-worker decode
	// stage.
	pendDispatch []int64
	// dispatched counts the flows routed to each shard; read by the shard
	// poll registered with obs.
	dispatched []atomic.Int64

	// router fans the batched path's route decisions out over parallel
	// workers (nil on a single-processor runtime: the sequencer decides
	// inline). decs is the reusable per-run decision scratch.
	router *routePool
	decs   []routeDecision

	// labels and leases are the shared join stores (dispatcher writes,
	// shards AND the dispatcher's own route stage read); seq tags every
	// broadcast mutation, epochDirty marks mutations not yet sealed into
	// a published epoch.
	labels     *dnssim.LabelStore
	leases     *dhcp.LeaseStore
	seq        uint64
	epochDirty bool

	// dispStats accumulates what the dispatcher accounts itself: the
	// broadcast counters (DNS entries and leases are applied exactly once,
	// here) and the cuts for flows and HTTP entries that never reach a
	// shard; merged into the final Stats by Finalize.
	dispStats Stats
	om        *obs.Metrics
	finalized bool

	// Epoch accounting for the shared join tables, registered with obs:
	// sealed epochs, shard batches resolved against a pinned snapshot,
	// and the tables' approximate retained bytes (a gauge). Epoch
	// publications are bookkeeping, not events — they never feed the
	// stage counters, the dispatch counters, or the queue-depth gauge.
	// queueCap is the per-shard queue-depth bound in events, the
	// denominator the depth gauge is read against.
	epochsPublished, epochPins, snapshotBytes, queueCap obs.Counter

	// lastSealStats is the merged cumulative Stats at the last SealDay —
	// the baseline the next day's Stats delta is taken against.
	lastSealStats Stats
}

// batchCap is the fixed event capacity of one shard batch: large enough
// to amortize the ring publication to noise, small enough that a pooled
// batch (~60 KiB) stays cache- and GC-friendly.
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
// seq pins the event to the broadcast sequence number current when it was
// routed; the worker resolves the event's joins against exactly that
// prefix of the shared stores.
type shardEvent struct {
	kind eventKind
	seq  uint64
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
		labels:       dnssim.NewLabelStore(nil),
		leases:       dhcp.NewLeaseStore(),
		queued:       make([]atomic.Int64, n),
		pendDispatch: make([]int64, n),
		dispatched:   make([]atomic.Int64, n),
		om:           opts.Obs,
	}
	if lanes := routeLanes(); lanes >= 2 {
		sp.router = newRoutePool(sp, lanes)
	}
	for i := 0; i < n; i++ {
		join := &snapshotJoin{labels: sp.labels, leases: sp.leases}
		p, err := newPipeline(reg, opts, join)
		if err != nil {
			return nil, err
		}
		ring := newBatchRing(defaultRingCap)
		done := make(chan struct{})
		sp.shards = append(sp.shards, p)
		sp.joins = append(sp.joins, join)
		sp.rings = append(sp.rings, ring)
		sp.done = append(sp.done, done)
		sp.open = append(sp.open, batchPool.Get().(*eventBatch))
		go func(p *Pipeline, join *snapshotJoin, shard int, ring *batchRing, done chan struct{}) {
			defer close(done)
			for {
				b, ok := ring.pop()
				if !ok {
					return
				}
				// Pin the batch: every event resolves against the store
				// prefix its own seq selects (counted once per batch).
				sp.epochPins.Add(1)
				for i := 0; i < b.n; i++ {
					ev := &b.events[i]
					join.pin = ev.seq
					switch ev.kind {
					case evFlow:
						p.Flow(ev.flow)
					case evHTTP:
						p.HTTPMeta(ev.http)
					}
				}
				sp.queued[shard].Add(-int64(b.n))
				b.n = 0
				batchPool.Put(b)
			}
		}(p, join, i, ring, done)
	}
	// Shards share the dispatcher's Metrics: counters are atomic, and the
	// shard poll (registered once every ring exists) gives snapshots a
	// live view of transport backlog.
	sp.queueCap.Store(queueCapacityEvents)
	sp.om.Register("epochs_published", &sp.epochsPublished)
	sp.om.Register("epoch_pins", &sp.epochPins)
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
// must fill the slot's kind, seq and payload before the next dispatcher
// operation; writing fields in place (rather than copying a constructed
// shardEvent) keeps the per-event cost to the payload bytes actually
// used. Slots are reused across pooled batches, so unrelated fields may
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

// flushShard seals the current epoch (if broadcasts arrived since the last
// seal), then publishes the shard's open batch into its ring and starts a
// fresh one. The queued gauge is raised before the (possibly stalling)
// ring push so the events are never invisible in flight.
func (sp *ShardedPipeline) flushShard(shard int) {
	b := sp.open[shard]
	if b.n == 0 {
		return
	}
	sp.sealEpoch()
	sp.queued[shard].Add(int64(b.n))
	sp.rings[shard].push(b)
	sp.open[shard] = batchPool.Get().(*eventBatch)
	if n := sp.pendDispatch[shard]; n > 0 {
		sp.dispatched[shard].Add(n)
		sp.pendDispatch[shard] = 0
	}
}

// sealEpoch publishes the broadcast mutations accumulated since the last
// seal as a new epoch. The store cells already published each record via
// their atomic pointers (O(delta) — nothing is copied here); sealing is
// the observability boundary: it counts the epoch and refreshes the
// snapshot-size gauge. Events enqueued after this point pin sequence
// numbers beyond the sealed watermark.
func (sp *ShardedPipeline) sealEpoch() {
	if !sp.epochDirty {
		return
	}
	sp.epochDirty = false
	sp.epochsPublished.Add(1)
	sp.snapshotBytes.Store(sp.labels.RetainedBytes() + sp.leases.RetainedBytes())
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

// Lease applies the binding once to the shared lease store under the next
// broadcast sequence number. No per-shard work — shards and the
// dispatcher's own route stage observe the binding through their pinned
// store views (there is exactly one lease index per run).
func (sp *ShardedPipeline) Lease(l dhcp.Lease) {
	sp.seq++
	sp.leases.Observe(l, sp.seq)
	sp.epochDirty = true
	sp.dispStats.Leases++
	sp.om.Add(obs.StageIngest, 0)
}

// DNS applies a resolver entry once to the shared label store under the
// next broadcast sequence number.
func (sp *ShardedPipeline) DNS(e dnssim.Entry) {
	sp.seq++
	sp.labels.Observe(e, sp.seq)
	sp.epochDirty = true
	sp.dispStats.DNSEntries++
	sp.om.Add(obs.StageIngest, 0)
}

// clientMACAt mirrors Pipeline.lookupMAC for dispatch, resolved against
// the shared lease store as of sequence number pin: DHCP leases for IPv4,
// EUI-64 extraction for SLAAC IPv6. Safe for concurrent callers (the
// parallel route workers) — the store is single-writer/multi-reader and
// the fallback is pure.
func (sp *ShardedPipeline) clientMACAt(addr netip.Addr, t time.Time, pin uint64) (packet.MAC, bool) {
	if mac, ok := sp.leases.LookupAt(addr, t, pin); ok {
		return mac, true
	}
	if universe.ResidenceNetV6.Contains(addr) {
		return packet.MACFromEUI64(addr)
	}
	return packet.MAC{}, false
}

// Flow routes one flow to its device's shard. Flows that cannot be routed
// (no MAC) are cut dispatcher-side — the dispatcher routes against the
// same pinned lease store the shards read, so a shard could not attribute
// them either; attributed flows are counted at their target shard's
// intake.
func (sp *ShardedPipeline) Flow(r flow.Record) { sp.routeFlow(&r) }

// routeFlow is the per-event (serial) route path: decide against the
// current sequence number, then place.
func (sp *ShardedPipeline) routeFlow(r *flow.Record) {
	sp.placeFlow(r, sp.decideFlow(r, sp.seq), sp.seq)
}

// placeFlow applies one flow's routing decision: copy into the target
// shard's open batch, or settle the dispatcher-side cut. Sequencer-only.
func (sp *ShardedPipeline) placeFlow(r *flow.Record, dec int32, seq uint64) {
	if dec >= 0 {
		shard := int(dec)
		ev := sp.slot(shard)
		ev.kind = evFlow
		ev.seq = seq
		ev.flow = *r
		sp.pendDispatch[shard]++
		return
	}
	sp.om.Add(obs.StageIngest, r.TotalBytes())
	switch dec {
	case decDropTap:
		sp.dispStats.FlowsTapDropped++
		sp.om.Drop(obs.StageTapFilter)
	case decDropWindow:
		sp.dispStats.FlowsOutOfWindow++
		sp.om.Drop(obs.StageTapFilter)
	default:
		sp.dispStats.FlowsUnattributed++
		sp.om.Drop(obs.StageDHCPNormalize)
	}
}

// HTTPMeta routes metadata to its device's shard. A single Pipeline counts
// every HTTP entry before the MAC lookup, so unroutable entries are counted
// (and their drop recorded) here rather than silently discarded — merged
// Stats.HTTPEntries must equal a single pipeline's.
func (sp *ShardedPipeline) HTTPMeta(e httplog.Entry) { sp.routeHTTP(&e) }

func (sp *ShardedPipeline) routeHTTP(e *httplog.Entry) {
	sp.placeHTTP(e, sp.decideHTTP(e, sp.seq), sp.seq)
}

// placeHTTP applies one HTTP entry's routing decision. Sequencer-only.
func (sp *ShardedPipeline) placeHTTP(e *httplog.Entry, dec int32, seq uint64) {
	if dec >= 0 {
		ev := sp.slot(int(dec))
		ev.kind = evHTTP
		ev.seq = seq
		ev.http = *e
		return
	}
	sp.dispStats.HTTPEntries++
	sp.om.Add(obs.StageIngest, 0)
	sp.om.Drop(obs.StageDHCPNormalize)
}

// EventBatch implements trace.BatchSink: dispatch a time-ordered run of
// events. The incoming slice is only borrowed — routed events are copied
// into shard batches, broadcast mutations into the shared stores, before
// returning. Long runs take the three-phase parallel route path described
// in route.go; short runs (or a single-processor runtime) fall back to the
// serial per-event loop, which is stream-for-stream identical.
func (sp *ShardedPipeline) EventBatch(events []trace.Event) {
	if sp.router == nil || len(events) < routeParallelMin {
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
		return
	}

	if cap(sp.decs) < len(events) {
		sp.decs = make([]routeDecision, len(events))
	}
	decs := sp.decs[:len(events)]

	// Phase A (sequencer): apply broadcasts in stream order, stamp every
	// routable event with the sequence number current at its position.
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case trace.EventDNS:
			sp.DNS(ev.DNS)
		case trace.EventLease:
			sp.Lease(ev.Lease)
		default:
			decs[i].seq = sp.seq
		}
	}

	// Phase B (parallel): pure route decisions, pinned per event.
	sp.router.run(events, decs)

	// Phase C (sequencer): place in stream order, settle counters.
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case trace.EventFlow:
			sp.placeFlow(&ev.Flow, decs[i].shard, decs[i].seq)
		case trace.EventHTTP:
			sp.placeHTTP(&ev.HTTP, decs[i].shard, decs[i].seq)
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
//     HTTPEntries). Each flow or HTTP entry is applied by exactly one shard
//     or cut exactly once by the dispatcher, so shard and dispatcher counts
//     add. Shard-side FlowsUnattributed is summed rather than overwritten:
//     it is expected to be zero (the dispatcher pre-filters with the same
//     pinned lease store, so a lease is visible to any flow routed after
//     it), and summing makes a violation surface as a parity failure
//     instead of being masked.
//   - dispatcher-owned: broadcast counters (DNSEntries, Leases). The
//     dispatcher applies each broadcast exactly once to the shared stores
//     and counts it there; a shard that counted one means a broadcast
//     leaked through the routed-event path and is worth crashing on.
func (sp *ShardedPipeline) Finalize() *Dataset {
	if sp.finalized {
		panic("core: Finalize called twice")
	}
	sp.finalized = true
	sp.Flush()
	if sp.router != nil {
		sp.router.close()
	}
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
