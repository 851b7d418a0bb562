package core

import (
	"runtime"
	"sync/atomic"
	"time"
)

// batchRing is a bounded, lock-free single-producer single-consumer queue
// of *eventBatch — the transport between the dispatcher and one shard
// worker. It replaces the previous buffered-channel handoff: a push is one
// plain slot store plus one atomic release-store of the tail cursor, and a
// pop is one acquire-load plus a plain slot read, so the steady-state
// per-batch transfer cost is two uncontended atomics instead of a channel's
// lock acquisition (and, under contention, its goroutine parking).
//
// Publication is batch-granular by construction: one ring slot carries one
// pooled batchCap-event batch, so the ring moves events in the same units
// the PR 3 batch protocol allocates them, and cursor traffic stays ~256×
// rarer than events.
//
// The SPSC contract is strict: exactly one goroutine (the dispatcher) may
// call push/close, and exactly one (the shard worker) may call pop.
// Correctness relies on it — each cursor has a single writer, so plain
// loads of one's own cursor and release/acquire pairs on the other's are
// the only synchronization needed:
//
//   - producer: writes slots[tail&mask], then tail.Store(tail+1). The
//     release-store makes the slot write visible to a consumer that
//     acquire-loads the new tail.
//   - consumer: reads slots[head&mask] only after tail.Load() > head, then
//     head.Store(head+1). The release-store returns the slot to the
//     producer, which overwrites it only after observing head advance past
//     it (the full check), so a slot is never written while read.
//
// head and tail live on separate cache lines (the padding below) so the
// producer's tail stores and the consumer's head stores do not false-share.
//
// Both ends block by spinning with runtime.Gosched and then parking in
// short sleeps — full/empty episodes are rare at batch granularity (a full
// 32-slot ring holds ~8k events of backlog), and counting them (stalls,
// waits) matters more than shaving their latency: a hot stall counter
// means the shards can't drain the dispatcher and more shards (or a deeper
// ring) would help; a hot wait counter means the dispatcher (or the
// producer feeding it) is the bottleneck.
type batchRing struct {
	slots []*eventBatch
	mask  uint64
	_     [40]byte // keep the hot cursors off the slots/mask line
	// head is the consumer cursor: the next slot index to pop. Written
	// only by the consumer.
	head atomic.Uint64
	_    [56]byte
	// tail is the producer cursor: the next slot index to fill. Written
	// only by the producer.
	tail atomic.Uint64
	_    [56]byte
	// closed is set once by the producer after its final push; pop drains
	// the remaining slots and then reports done.
	closed atomic.Uint32
	// stalls counts producer full-ring episodes, waits consumer
	// empty-ring episodes (once per episode, not per spin).
	stalls atomic.Int64
	waits  atomic.Int64
}

// defaultRingCap is the per-shard ring depth in batches. With batchCap
// this allows ~8k events of backlog per shard before the dispatcher
// stalls — the same bound the previous channel transport had.
const defaultRingCap = 32

// newBatchRing builds a ring with the given capacity, which must be a
// power of two ≥ 1 (the index mask requires it).
func newBatchRing(capacity int) *batchRing {
	if capacity < 1 || capacity&(capacity-1) != 0 {
		panic("core: batchRing capacity must be a power of two ≥ 1")
	}
	return &batchRing{
		slots: make([]*eventBatch, capacity),
		mask:  uint64(capacity - 1),
	}
}

// spinThenPark backs a blocked ring end off: first yield the processor
// (the peer may be one Gosched away, and on a single-P runtime a pure spin
// would starve it), then park in short sleeps — at batch granularity an
// episode resolves in at most a few hundred microseconds of real work.
func spinThenPark(spins *int) {
	*spins++
	if *spins < 64 {
		runtime.Gosched()
		return
	}
	time.Sleep(50 * time.Microsecond)
}

// push appends one batch, blocking while the ring is full. Must not be
// called after close. Producer-only.
func (r *batchRing) push(b *eventBatch) {
	t := r.tail.Load() // own cursor: no concurrent writer
	if t-r.head.Load() > r.mask {
		r.stalls.Add(1)
		spins := 0
		for t-r.head.Load() > r.mask {
			spinThenPark(&spins)
		}
	}
	r.slots[t&r.mask] = b
	r.tail.Store(t + 1)
}

// pop removes the oldest batch, blocking while the ring is empty. It
// returns false — permanently — once the ring is closed and drained.
// Consumer-only.
func (r *batchRing) pop() (*eventBatch, bool) {
	h := r.head.Load() // own cursor: no concurrent writer
	if r.tail.Load() == h {
		if r.closed.Load() == 1 && r.tail.Load() == h {
			return nil, false
		}
		r.waits.Add(1)
		spins := 0
		for r.tail.Load() == h {
			// Re-check tail after closed: the producer's final push
			// happens before its close store, so closed+empty is final.
			if r.closed.Load() == 1 && r.tail.Load() == h {
				return nil, false
			}
			spinThenPark(&spins)
		}
	}
	b := r.slots[h&r.mask]
	r.head.Store(h + 1)
	return b, true
}

// close marks the stream complete. The producer must not push afterwards;
// the consumer drains remaining batches and then pop returns false.
func (r *batchRing) close() { r.closed.Store(1) }

// len reports the current occupancy in batches. Safe to call from any
// goroutine; the two cursor loads are not taken atomically together, so
// the value is approximate while both ends are moving (a gauge, not an
// invariant).
func (r *batchRing) len() int {
	t := r.tail.Load()
	h := r.head.Load()
	if t < h { // torn read while racing; clamp
		return 0
	}
	return int(t - h)
}

// capacity reports the ring depth in batches.
func (r *batchRing) capacity() int { return len(r.slots) }

// stallCount reports producer full-ring episodes so far.
func (r *batchRing) stallCount() int64 { return r.stalls.Load() }

// waitCount reports consumer empty-ring episodes so far.
func (r *batchRing) waitCount() int64 { return r.waits.Load() }
