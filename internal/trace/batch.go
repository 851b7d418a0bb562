package trace

import (
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
)

// EventKind discriminates the union arms of Event.
type EventKind uint8

// Event kinds, one per Sink method.
const (
	EventFlow EventKind = iota
	EventDNS
	EventHTTP
	EventLease
)

// Event is one sink event in batchable form: a kind tag plus the inline
// payload for that kind. Only the field selected by Kind is meaningful;
// the others are zero values.
type Event struct {
	Kind  EventKind
	Flow  flow.Record
	DNS   dnssim.Entry
	HTTP  httplog.Entry
	Lease dhcp.Lease
}

// BatchSink is an optional fast path a Sink may implement. A producer
// that finds the interface delivers events through EventBatch in runs
// instead of one interface call per event, and calls Flush at stream
// boundaries (end of a trace day, end of input). The contract mirrors
// the per-event methods exactly:
//
//   - events arrive in the same global order the Sink methods would see
//     them (leases first within a day, then flows/DNS/HTTP in time order);
//   - each event is delivered exactly once, through exactly one path —
//     a producer never mixes EventBatch and per-event calls in one stream;
//   - the slice and its events are only valid for the duration of the
//     call: a sink must copy anything it retains;
//   - after Flush returns, every event delivered so far must be visible
//     to the sink's downstream consumers (a buffering sink drains its
//     open buffers; an unbuffered sink may treat it as a no-op).
type BatchSink interface {
	Sink
	EventBatch([]Event)
	Flush()
}

// batchEmitCap is the producer-side run length: Run/RunDays and
// logsink replay hand a BatchSink slices of at most this many events.
const batchEmitCap = 1024

// Batcher adapts per-event emission to the fastest delivery path its sink
// supports: for a BatchSink it accumulates events into runs of at most
// batchEmitCap and hands them over through EventBatch; for a plain Sink
// every method forwards directly with no buffering and no Event
// construction. Batcher itself implements Sink, so a producer wraps its
// output sink once and emits as usual, calling Flush at stream boundaries.
// Not safe for concurrent use.
type Batcher struct {
	sink Sink
	bs   BatchSink // non-nil when sink supports the batch fast path
	buf  []Event
}

// NewBatcher wraps sink, detecting the batch fast path once.
func NewBatcher(sink Sink) *Batcher {
	b := &Batcher{sink: sink}
	if bs, ok := sink.(BatchSink); ok {
		b.bs = bs
	}
	return b
}

func (b *Batcher) push(ev Event) {
	if b.buf == nil {
		b.buf = make([]Event, 0, batchEmitCap)
	}
	b.buf = append(b.buf, ev)
	if len(b.buf) == batchEmitCap {
		b.bs.EventBatch(b.buf)
		b.buf = b.buf[:0]
	}
}

// Flow implements Sink.
func (b *Batcher) Flow(r flow.Record) {
	if b.bs == nil {
		b.sink.Flow(r)
		return
	}
	b.push(Event{Kind: EventFlow, Flow: r})
}

// DNS implements Sink.
func (b *Batcher) DNS(e dnssim.Entry) {
	if b.bs == nil {
		b.sink.DNS(e)
		return
	}
	b.push(Event{Kind: EventDNS, DNS: e})
}

// HTTPMeta implements Sink.
func (b *Batcher) HTTPMeta(e httplog.Entry) {
	if b.bs == nil {
		b.sink.HTTPMeta(e)
		return
	}
	b.push(Event{Kind: EventHTTP, HTTP: e})
}

// Lease implements Sink.
func (b *Batcher) Lease(l dhcp.Lease) {
	if b.bs == nil {
		b.sink.Lease(l)
		return
	}
	b.push(Event{Kind: EventLease, Lease: l})
}

// Flush drains the open run and forwards the flush to a batch-capable
// sink; a no-op for plain sinks. Call at stream boundaries (end of input,
// end of a trace day). Each forwarded flush is a visibility boundary: a
// batch-capable sink must make every event delivered so far visible.
func (b *Batcher) Flush() {
	if b.bs == nil {
		return
	}
	if len(b.buf) > 0 {
		b.bs.EventBatch(b.buf)
		b.buf = b.buf[:0]
	}
	b.bs.Flush()
}

// Deliver replays one event through sink's per-event interface — the
// shared fallback for producers whose consumer is not a BatchSink, and
// the per-event half of the "exactly one path" contract above.
func (e *Event) Deliver(sink Sink) {
	switch e.Kind {
	case EventFlow:
		sink.Flow(e.Flow)
	case EventDNS:
		sink.DNS(e.DNS)
	case EventHTTP:
		sink.HTTPMeta(e.HTTP)
	case EventLease:
		sink.Lease(e.Lease)
	}
}

// DayCounter forwards a generator's stream to Sink and calls OnDay after
// each delivered day, on the delivering goroutine. It is a BatchSink, so
// the generator marks every day boundary with a Flush: a batch-capable
// inner Sink receives the batches and flushes unchanged, a plain one
// receives the events one by one through its per-event methods.
type DayCounter struct {
	Sink
	OnDay func()
}

// EventBatch implements BatchSink.
func (d *DayCounter) EventBatch(events []Event) {
	if bs, ok := d.Sink.(BatchSink); ok {
		bs.EventBatch(events)
		return
	}
	for i := range events {
		events[i].Deliver(d.Sink)
	}
}

// Flush implements BatchSink.
func (d *DayCounter) Flush() {
	if bs, ok := d.Sink.(BatchSink); ok {
		bs.Flush()
	}
	d.OnDay()
}
