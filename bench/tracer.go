package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/figset"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/trace"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Its name is "<layer>.<operation>", the layer being the module
// that does the work. Times are nanoseconds since the tracer started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a top-level span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Calls > 0 marks an aggregate: that many calls, all made on the parent
	// span's goroutine between StartNS and EndNS, which together took BusyNS.
	// Per-event sink calls are recorded this way; a span each would cost
	// more than the calls themselves.
	Calls  int64 `json:"calls,omitempty"`
	BusyNS int64 `json:"busy_ns,omitempty"`
}

func (s *span) dur() int64 { return s.EndNS - s.StartNS }

// layer is the module a span's time is charged to.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records the spans of one in-process workload repeat. It is used
// from a single goroutine: spans nest strictly, innermost last.
type tracer struct {
	workload string
	origin   time.Time
	wallNS   int64 // set by finish
	spans    []span
	open     []int // IDs of the open spans, innermost last
	aggs     []*agg
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.top(), Name: name, Workload: t.workload, StartNS: t.now()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) top() int {
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return 0
}

// end closes span id, which must be the innermost open span, and emits the
// aggregates opened under it as its children.
func (t *tracer) end(id int) {
	end := t.now()
	kept := t.aggs[:0]
	for _, a := range t.aggs {
		if a.owner != id {
			kept = append(kept, a)
			continue
		}
		if calls, busy := a.totals(); calls > 0 {
			t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: id, Name: a.name, Workload: t.workload,
				StartNS: a.first, EndNS: a.last, Calls: calls, BusyNS: busy})
		}
	}
	t.aggs = kept
	t.spans[id-1].EndNS = end
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	defer t.end(id)
	return f()
}

// child records an already-measured interval [start, end] as a child of the
// innermost open span, for work a layer timed itself inside a call the
// benchmark can only wrap whole (figset.Incremental's figure recompute).
func (t *tracer) child(name string, start, end int64) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.top(), Name: name, Workload: t.workload,
		StartNS: start, EndNS: end})
}

// finish fixes the traced wall at now.
func (t *tracer) finish() { t.wallNS = t.now() }

// sampleEvery sets the share of per-event sink calls that are timed: one in
// sampleEvery, drawn at random. The clock read waits for the work in flight
// before it, so reading it around each of a million short calls costs as
// much as the calls; timing a random sample and scaling each kind's mean by
// its exact call count keeps the tracing overhead to a few percent. The draw
// is random rather than every n-th call so that rare costly calls, such as
// the first write of a day that opens that day's files, are neither always
// nor never timed.
const sampleEvery = 16

// Call kinds, estimated separately because their costs differ.
const (
	kindFlow = iota
	kindDNS
	kindHTTP
	kindLease
	numKinds
)

// agg accumulates back-to-back calls made under one span.
type agg struct {
	name        string
	owner       int
	first, last int64 // start of the first and end of the last timed call
	kinds       [numKinds]struct{ calls, timed, busy int64 }
}

// agg opens an aggregate named name under the innermost open span; it is
// emitted when that span ends.
func (t *tracer) agg(name string) *agg {
	a := &agg{name: name, owner: t.top()}
	t.aggs = append(t.aggs, a)
	return a
}

// add records a timed call of kind k, already counted.
func (a *agg) add(k int, start, end int64) {
	c := &a.kinds[k]
	if a.last == 0 {
		a.first = start
	}
	c.timed++
	c.busy += end - start
	a.last = end
}

// totals returns the exact call count and the estimated busy time: each
// kind's timed mean scaled to all its calls.
func (a *agg) totals() (calls, busy int64) {
	for _, c := range a.kinds {
		calls += c.calls
		if c.timed > 0 {
			busy += c.busy * c.calls / c.timed
		}
	}
	return calls, busy
}

// selfTimes returns every span's self time by ID: its duration minus the
// union of its ordinary children's intervals, minus its aggregate
// children's busy time. An aggregate's own self time is its busy time.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], &spans[i])
		}
	}
	self := make(map[int]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Calls > 0 {
			self[s.ID] = s.BusyNS
			continue
		}
		var ivs [][2]int64
		var busy int64
		for _, k := range kids[s.ID] {
			if k.Calls > 0 {
				busy += k.BusyNS
			} else {
				ivs = append(ivs, [2]int64{k.StartNS, k.EndNS})
			}
		}
		self[s.ID] = s.dur() - unionLen(ivs, s.StartNS, s.EndNS) - busy
	}
	return self
}

// unionLen is the total length of the union of ivs clipped to [lo, hi].
func unionLen(ivs [][2]int64, lo, hi int64) int64 {
	var cl [][2]int64
	for _, iv := range ivs {
		if s, e := max(iv[0], lo), min(iv[1], hi); e > s {
			cl = append(cl, [2]int64{s, e})
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i][0] < cl[j][0] })
	var total int64
	for i := 0; i < len(cl); {
		s, e := cl[i][0], cl[i][1]
		for i++; i < len(cl) && cl[i][0] <= e; i++ {
			e = max(e, cl[i][1])
		}
		total += e - s
	}
	return total
}

// coverage is the share of the traced wall that top-level spans cover; the
// layers account for the whole only when it is close to 1.
func (t *tracer) coverage() float64 {
	var ivs [][2]int64
	for _, s := range t.spans {
		if s.Parent == 0 {
			ivs = append(ivs, [2]int64{s.StartNS, s.EndNS})
		}
	}
	if t.wallNS == 0 {
		return 0
	}
	return float64(unionLen(ivs, 0, t.wallNS)) / float64(t.wallNS)
}

// timedSink wraps a pipeline or log writer so the calls a producer makes
// into it are charged to an aggregate; the producer's own time is what is
// left of its span.
type timedSink struct {
	tr   *tracer
	next trace.Sink
	a    *agg
	rng  uint64 // xorshift state of the sampling draw
}

// skip counts a call of kind k and reports whether it goes untimed.
func (s *timedSink) skip(k int) bool {
	s.a.kinds[k].calls++
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng%sampleEvery != 0
}

func (s *timedSink) Flow(r flow.Record) {
	if s.skip(kindFlow) {
		s.next.Flow(r)
		return
	}
	t0 := s.tr.now()
	s.next.Flow(r)
	s.a.add(kindFlow, t0, s.tr.now())
}

func (s *timedSink) DNS(e dnssim.Entry) {
	if s.skip(kindDNS) {
		s.next.DNS(e)
		return
	}
	t0 := s.tr.now()
	s.next.DNS(e)
	s.a.add(kindDNS, t0, s.tr.now())
}

func (s *timedSink) HTTPMeta(e httplog.Entry) {
	if s.skip(kindHTTP) {
		s.next.HTTPMeta(e)
		return
	}
	t0 := s.tr.now()
	s.next.HTTPMeta(e)
	s.a.add(kindHTTP, t0, s.tr.now())
}

func (s *timedSink) Lease(l dhcp.Lease) {
	if s.skip(kindLease) {
		s.next.Lease(l)
		return
	}
	t0 := s.tr.now()
	s.next.Lease(l)
	s.a.add(kindLease, t0, s.tr.now())
}

// newTimedSink wraps next; the caller points its aggregate at the current
// span. The wrapper offers only per-event calls, which is how the generator
// and the log readers drive every sink these workloads use: neither
// core.Pipeline nor the log writers take event batches.
func newTimedSink(tr *tracer, next trace.Sink) *timedSink {
	return &timedSink{tr: tr, next: next, rng: 0x9e3779b97f4a7c15}
}

// timedSealer wraps the pipeline handed to figset.NewIncremental so the day
// seal and delta snapshot are timed from outside.
type timedSealer struct {
	tr      *tracer
	s       figset.Sealer
	touched []float64 // devices each sealed day touched
}

func (t *timedSealer) SealDay(label string) *core.DayPartial {
	id := t.tr.begin("core.seal_day")
	dp := t.s.SealDay(label)
	t.tr.end(id)
	t.touched = append(t.touched, float64(len(dp.Touched)))
	return dp
}

func (t *timedSealer) SnapshotDelta(prev *core.Dataset, dp *core.DayPartial) *core.Dataset {
	id := t.tr.begin("core.snapshot_delta")
	defer t.tr.end(id)
	return t.s.SnapshotDelta(prev, dp)
}
