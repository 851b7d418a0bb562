package core

import (
	"net/netip"
	"runtime"
	"time"

	"repro/internal/flow"
	"repro/internal/packet"
	"repro/internal/trace"
)

// The batched dispatch path splits each incoming event run into three
// phases so the per-event route work — both joins and the tap/window cuts
// — runs on parallel route lanes while everything order-sensitive stays
// on the single sequencer goroutine (the dispatcher itself):
//
//	phase A (sequencer): walk the run in stream order; apply every
//	  broadcast (DNS entry, DHCP lease) to the shared stores under the
//	  next monotonic sequence number, exactly as the per-event path does;
//	  stamp every routable event with the sequence number current at its
//	  stream position (its pin).
//	phase B (route lanes, parallel): resolve every flow's and HTTP
//	  entry's admission (admitFlow/admitHTTP, join.go) against the shared
//	  stores *pinned to the event's own sequence number*. The pin is what
//	  makes this exact: phase A already folded the whole run's broadcasts
//	  into the stores, but a lookup sees only records with seq ≤ its pin —
//	  byte-identical to the single pipeline resolving it mid-stream. Lanes
//	  read the stores, the registry and the campus calendar, and write
//	  disjoint decision slots.
//	phase C (sequencer): walk the run in stream order again, copying
//	  admitted events with their admission into per-shard open batches
//	  (flushing full batches into the SPSC rings) and settling the cut
//	  events' counters. All mutation of dispatcher-owned state — open
//	  batches, pendDispatch, dispStats, obs — happens here,
//	  single-threaded.
//
// Exactness therefore never depends on lane scheduling: sequence numbers
// are assigned serially in phase A, shard batch order is materialized
// serially in phase C, and phase B computes pure functions of (event,
// pin). The shards look nothing up; they account the admission they are
// handed.
//
// The route stage is the only reader of the stores, and no lane ever runs
// beside their writer, so they are plain maps. The sequencer writes them
// in phase A (and on the serial path, where it also does the reading),
// and it is blocked in routePool.run for all of phase B: the job send
// that starts a lane orders the lane's reads after phase A's writes, and
// the done receive orders them before the next run's.

// pinnedJoin is the route stage's view of the shared stores as of one
// event's sequence number.
type pinnedJoin struct {
	sp  *ShardedPipeline
	pin uint64
}

func (j pinnedJoin) leaseMAC(addr netip.Addr, t time.Time) (packet.MAC, bool) {
	return j.sp.leases.LookupAt(addr, t, j.pin)
}

func (j pinnedJoin) label(server netip.Addr, t time.Time) (string, bool) {
	return j.sp.labels.LabelAt(server, t, j.pin)
}

// admitFlowAt resolves one flow's admission as of pin.
func (sp *ShardedPipeline) admitFlowAt(r *flow.Record, pin uint64) admission {
	return admitFlow(pinnedJoin{sp, pin}, sp.reg, !sp.opts.DisableTapFilter, r)
}

// routeDecision is one event's routing outcome. seq is written by the
// sequencer in phase A; adm by exactly one route lane in phase B; both
// are read by the sequencer in phase C. The phase barriers (job handoff
// and completion signals) order those accesses.
type routeDecision struct {
	seq uint64
	adm admission
}

// decideRange computes phase-B admissions for events[lo:hi). Broadcast
// events were fully handled in phase A and are skipped here.
func (sp *ShardedPipeline) decideRange(events []trace.Event, decs []routeDecision, lo, hi int) {
	for i := lo; i < hi; i++ {
		ev := &events[i]
		switch ev.Kind {
		case trace.EventFlow:
			decs[i].adm = sp.admitFlowAt(&ev.Flow, decs[i].seq)
		case trace.EventHTTP:
			decs[i].adm = admitHTTP(pinnedJoin{sp, decs[i].seq}, &ev.HTTP)
		}
	}
}

// routeJob is one phase-B work slice handed to a route worker.
type routeJob struct {
	events []trace.Event
	decs   []routeDecision
	lo, hi int
}

// routePool runs phase B across persistent worker goroutines. The
// sequencer participates: with k total route lanes it hands k-1 chunks to
// workers and decides the first chunk itself, so the pool adds k-1
// goroutines, not k. A nil pool (or a short run) means the sequencer
// decides everything inline.
type routePool struct {
	sp   *ShardedPipeline
	jobs []chan routeJob
	done chan struct{}
}

// routeParallelMin is the run length below which phase B runs inline on
// the sequencer: the fixed cost of a parallel round (one channel send and
// one completion receive per worker) outweighs the route work of a short
// run.
const routeParallelMin = 128

// newRoutePool starts lanes-1 route workers (lanes ≥ 2).
func newRoutePool(sp *ShardedPipeline, lanes int) *routePool {
	p := &routePool{
		sp:   sp,
		jobs: make([]chan routeJob, lanes-1),
		done: make(chan struct{}, lanes-1),
	}
	for i := range p.jobs {
		ch := make(chan routeJob)
		p.jobs[i] = ch
		go func() {
			for j := range ch {
				sp.decideRange(j.events, j.decs, j.lo, j.hi)
				p.done <- struct{}{}
			}
		}()
	}
	return p
}

// run executes phase B over the whole run, splitting it into one
// contiguous chunk per lane. Returns only after every decision slot in
// [0, len(events)) is written.
func (p *routePool) run(events []trace.Event, decs []routeDecision) {
	n := len(events)
	lanes := len(p.jobs) + 1
	chunk := (n + lanes - 1) / lanes
	sent := 0
	for i, ch := range p.jobs {
		lo := (i + 1) * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		ch <- routeJob{events: events, decs: decs, lo: lo, hi: hi}
		sent++
	}
	// The sequencer decides the first chunk on its own core while the
	// workers run theirs.
	first := chunk
	if first > n {
		first = n
	}
	p.sp.decideRange(events, decs, 0, first)
	for i := 0; i < sent; i++ {
		<-p.done
	}
}

// close stops the workers. Must not race run; Finalize calls it after the
// last EventBatch.
func (p *routePool) close() {
	for _, ch := range p.jobs {
		close(ch)
	}
}

// routeLanes picks the phase-B parallelism: one lane per available
// processor, capped — route work is a minority share of an event's total
// cost, so a few lanes saturate the sequencer long before the shard
// workers run out of feed, and every extra lane competes with those
// workers for cores.
func routeLanes() int {
	lanes := runtime.GOMAXPROCS(0)
	if lanes > 4 {
		lanes = 4
	}
	return lanes
}
