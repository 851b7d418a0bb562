package trace

import (
	"cmp"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
)

// A day is generated in three phases:
//
//   - plan: workers seed each present device's RNG and draw its activity
//     (parallel over contiguous device ranges); DHCP leasing then runs
//     serially in device order, because each grant depends on the pool
//     state every earlier request left behind;
//   - build: workers run deviceDay over contiguous ranges of the active
//     devices, each into its own chunk of value slabs, and sort the
//     chunk's keys by (time, chunk-local insertion order);
//   - deliver: the caller's goroutine hands the leases to the sink, then
//     k-way merges the chunks by (time, chunk index).
//
// Chunks cover contiguous device ranges in device order, so the pair
// (chunk index, local sequence) orders events exactly as one global
// insertion counter would; the merge therefore reproduces the stable time
// sort of a serial run byte for byte, whatever the worker count.

// eventKind selects the slab an eventKey indexes.
type eventKind uint8

const (
	kindFlow eventKind = iota
	kindDNS
	kindHTTP
)

// eventKey orders one event of a chunk and locates its payload.
type eventKey struct {
	t    int64 // event time, Unix nanoseconds
	seq  int32 // chunk-local insertion order, the stable tie-breaker
	idx  int32 // index into the slab selected by kind
	kind eventKind
}

// chunk is one build worker's output for a day: one slab per payload kind
// (no per-event allocation) plus the keys that order them.
type chunk struct {
	flows []flow.Record
	dns   []dnssim.Entry
	http  []httplog.Entry
	keys  []eventKey
}

func (c *chunk) reset() {
	c.flows, c.dns, c.http, c.keys = c.flows[:0], c.dns[:0], c.http[:0], c.keys[:0]
}

func (c *chunk) key(t time.Time, kind eventKind, idx int) {
	c.keys = append(c.keys, eventKey{t: t.UnixNano(), seq: int32(len(c.keys)), idx: int32(idx), kind: kind})
}

func (c *chunk) addFlow(r flow.Record) {
	c.key(r.Start, kindFlow, len(c.flows))
	c.flows = append(c.flows, r)
}

func (c *chunk) addDNS(e dnssim.Entry) {
	c.key(e.Time, kindDNS, len(c.dns))
	c.dns = append(c.dns, e)
}

func (c *chunk) addHTTP(e httplog.Entry) {
	c.key(e.Time, kindHTTP, len(c.http))
	c.http = append(c.http, e)
}

func compareKeys(a, b eventKey) int {
	if a.t != b.t {
		return cmp.Compare(a.t, b.t)
	}
	return cmp.Compare(a.seq, b.seq)
}

// dayBuf holds one generated day, ready for delivery. Buffers are recycled
// across days, so once their slabs reach the peak day's size the event
// stream allocates nothing.
type dayBuf struct {
	leases []dhcp.Lease
	chunks []chunk
}

// activeDev is a device that is active today, with its seeded RNG (one
// activity draw already taken) and, after leasing, its address.
type activeDev struct {
	dev *Device
	rng *rand.Rand
	ip  netip.Addr
}

// fanOut runs fn(0..n-1) concurrently, worker 0 on the calling goroutine,
// and returns when all have finished.
func fanOut(n int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(0)
	wg.Wait()
}

// newDayState derives one day's shared generation context.
func (g *Generator) newDayState(day campus.Day) dayState {
	behaviorDay := day
	seasonal := 1.0
	if g.cfg.NoPandemic {
		// day % 28 lands in February on the same weekday (28 = 4 weeks).
		behaviorDay = day % 28
		if campus.MonthOfDay(day) >= campus.April {
			seasonal = 1.04
		}
	}
	return dayState{
		day:         day,
		behaviorDay: behaviorDay,
		start:       day.Time(),
		end:         day.Time().Add(24*time.Hour - time.Second),
		hours:       dayHourWeights(behaviorDay),
		seasonal:    seasonal,
	}
}

// buildDay runs the plan and build phases of one day into buf.
func (g *Generator) buildDay(day campus.Day, buf *dayBuf) {
	ds := g.newDayState(day)
	n := runtime.GOMAXPROCS(0)

	// Plan, parallel part: seed and draw activity. Worker w's k-th active
	// device keeps rngs[w][k]; an inactive device's RNG is reseeded for
	// the next one, so the pool only grows to the peak active count.
	g.planned = resize(g.planned, n)
	g.rngs = resize(g.rngs, n)
	fanOut(n, func(w int) {
		devs := g.devices[w*len(g.devices)/n : (w+1)*len(g.devices)/n]
		out := g.planned[w][:0]
		for _, d := range devs {
			if !d.Present(day) {
				continue
			}
			if len(out) == len(g.rngs[w]) {
				g.rngs[w] = append(g.rngs[w], rand.New(rand.NewSource(0)))
			}
			rng := g.rngs[w][len(out)]
			rng.Seed(deviceDaySeed(g.cfg.Seed, d.Index, day))
			if rng.Float64() >= activityP(d.Kind, ds.behaviorDay) {
				continue
			}
			out = append(out, activeDev{dev: d, rng: rng})
		}
		g.planned[w] = out
	})

	// Plan, serial part: lease in device order (device-index microsecond
	// offsets keep the DHCP request stream monotone).
	buf.leases = buf.leases[:0]
	g.actives = g.actives[:0]
	for _, planned := range g.planned {
		for _, a := range planned {
			lease, err := g.dhcpSrv.Request(a.dev.MAC, ds.start.Add(time.Duration(a.dev.Index)*time.Microsecond))
			if err != nil {
				continue // pool exhausted: device silent today
			}
			buf.leases = append(buf.leases, lease)
			a.ip = lease.Addr
			g.actives = append(g.actives, a)
		}
	}

	// Build: one chunk per worker over contiguous active ranges.
	buf.chunks = resize(buf.chunks, n)
	fanOut(n, func(w int) {
		c := &buf.chunks[w]
		c.reset()
		cds := ds
		cds.out = c
		for _, a := range g.actives[w*len(g.actives)/n : (w+1)*len(g.actives)/n] {
			g.deviceDay(&cds, a.dev, a.rng, a.ip)
		}
		slices.SortFunc(c.keys, compareKeys)
	})
}

// resize returns s with length n, keeping existing elements (and their
// buffers) for reuse.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// deliver hands one built day to the sink: leases first, then the merged
// event stream.
func (g *Generator) deliver(buf *dayBuf, sink Sink) {
	for _, l := range buf.leases {
		sink.Lease(l)
	}
	g.merge.init(buf.chunks)
	for {
		c, k, ok := g.merge.next()
		if !ok {
			break
		}
		switch k.kind {
		case kindFlow:
			sink.Flow(c.flows[k.idx])
		case kindDNS:
			sink.DNS(c.dns[k.idx])
		case kindHTTP:
			sink.HTTPMeta(c.http[k.idx])
		}
	}
}

// merger is a k-way merge of sorted chunks by (head time, chunk index),
// kept as a binary min-heap of chunk indices.
type merger struct {
	chunks []chunk
	pos    []int
	heap   []int
}

func (m *merger) init(chunks []chunk) {
	m.chunks = chunks
	m.pos = resize(m.pos, len(chunks))
	m.heap = m.heap[:0]
	for i := range chunks {
		m.pos[i] = 0
		if len(chunks[i].keys) > 0 {
			m.heap = append(m.heap, i)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
}

func (m *merger) less(a, b int) bool {
	ta, tb := m.chunks[a].keys[m.pos[a]].t, m.chunks[b].keys[m.pos[b]].t
	return ta < tb || ta == tb && a < b
}

func (m *merger) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(m.heap) {
			return
		}
		if r := l + 1; r < len(m.heap) && m.less(m.heap[r], m.heap[l]) {
			l = r
		}
		if !m.less(m.heap[l], m.heap[i]) {
			return
		}
		m.heap[i], m.heap[l] = m.heap[l], m.heap[i]
		i = l
	}
}

// next pops the earliest remaining event.
func (m *merger) next() (*chunk, eventKey, bool) {
	if len(m.heap) == 0 {
		return nil, eventKey{}, false
	}
	ci := m.heap[0]
	c := &m.chunks[ci]
	k := c.keys[m.pos[ci]]
	m.pos[ci]++
	if m.pos[ci] == len(c.keys) {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	m.down(0)
	return c, k, true
}
