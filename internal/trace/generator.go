package trace

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/universe"
)

// Sink receives the generated artifacts. Within one day, Lease events
// arrive first (in time order), followed by Flow/DNS/HTTPMeta events in
// global time order — the order the real capture would deliver them.
type Sink interface {
	Flow(flow.Record)
	DNS(dnssim.Entry)
	HTTPMeta(httplog.Entry)
	Lease(dhcp.Lease)
}

// DayEnder is an optional Sink extension: RunDays calls EndDay after each
// day's last event, on the delivering goroutine.
type DayEnder interface {
	EndDay()
}

// DayCounter forwards a generator's stream to Sink and calls OnDay after
// each delivered day.
type DayCounter struct {
	Sink
	OnDay func()
}

// EndDay implements DayEnder.
func (d *DayCounter) EndDay() { d.OnDay() }

// Generator produces the synthetic campus workload.
type Generator struct {
	cfg      Config
	reg      *universe.Registry
	resolver *dnssim.Resolver
	dhcpSrv  *dhcp.Server
	devices  []*Device

	usPrefs   []svcPref
	usWeights []int
	homePrefs map[string][]svcPref
	homeWts   map[string][]int

	zoomPrefixes []netip.Prefix

	// Producer-side day state (see day.go), owned by RunDays's producer
	// goroutine and its plan/build workers: the recycled per-worker RNG
	// pools, the planned and leased active devices, and the memoized
	// social spread multipliers (indexed by device, written only by the
	// worker building the device).
	rngs    [][]*rand.Rand
	planned [][]activeDev
	actives []activeDev
	spread  [][campus.NumMonths][len(socialApps)]float64

	// bufs are the two day buffers handed between producer and caller;
	// merge belongs to the caller of RunDays.
	bufs  [2]dayBuf
	merge merger
}

// New builds a generator. The same cfg and registry produce byte-identical
// output.
func New(cfg Config, reg *universe.Registry) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	srv, err := dhcp.NewServer(netip.MustParsePrefix("10.0.0.0/10"), cfg.LeaseTime)
	if err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:       cfg,
		reg:       reg,
		resolver:  dnssim.NewResolver(reg, cfg.DNSTTL),
		dhcpSrv:   srv,
		devices:   buildPopulation(cfg),
		homePrefs: make(map[string][]svcPref),
		homeWts:   make(map[string][]int),
	}
	g.spread = make([][campus.NumMonths][len(socialApps)]float64, len(g.devices))
	g.usPrefs, g.homePrefs = buildPrefs(reg)
	g.usWeights = weightsOf(g.usPrefs)
	for code, prefs := range g.homePrefs {
		g.homeWts[code] = weightsOf(prefs)
	}
	for _, pi := range reg.Prefixes() {
		// Direct-IP media servers live in the published v4 ranges.
		if pi.Owner == "zoom" && pi.Prefix.Addr().Is4() {
			g.zoomPrefixes = append(g.zoomPrefixes, pi.Prefix)
		}
	}
	if len(g.zoomPrefixes) == 0 {
		return nil, fmt.Errorf("trace: registry has no zoom prefixes")
	}
	return g, nil
}

func weightsOf(prefs []svcPref) []int {
	w := make([]int, len(prefs))
	for i, p := range prefs {
		w[i] = p.weight
	}
	return w
}

// Devices exposes the population ground truth (for the accuracy experiment
// and tests). The slice aliases internal state; treat as read-only.
func (g *Generator) Devices() []*Device { return g.devices }

// Resolver returns the campus resolver's address (the destination of DNS
// traffic).
func (g *Generator) Resolver() netip.Addr { return g.reg.ResolverAddr() }

// Run generates the full study window.
func (g *Generator) Run(sink Sink) error {
	return g.RunDays(sink, 0, campus.NumDays)
}

// RunDays generates days [from, to). Planning and building run on a
// producer goroutine one day ahead of delivery, so day d+1 is generated
// while the sink ingests day d; the sink is still called only from the
// caller's goroutine, and the stream is identical to generating the days
// one call at a time. A sink that implements DayEnder is told after each
// day.
func (g *Generator) RunDays(sink Sink, from, to campus.Day) error {
	if from < 0 || to > campus.NumDays || from > to {
		return fmt.Errorf("trace: day range [%d,%d) outside study window", from, to)
	}
	end, _ := sink.(DayEnder)
	// Unbuffered handoff plus a two-buffer free list: at most one day
	// being delivered and one being built.
	free := make(chan *dayBuf, len(g.bufs))
	for i := range g.bufs {
		free <- &g.bufs[i]
	}
	ready := make(chan *dayBuf)
	stop := make(chan struct{})
	done := make(chan struct{})
	go g.produce(from, to, free, ready, stop, done)
	defer func() {
		// Unwind the producer before returning, also when a sink panics
		// mid-delivery: it owns the generator's producer-side state.
		close(stop)
		<-done
	}()
	for day := from; day < to; day++ {
		buf := <-ready
		g.deliver(buf, sink)
		if end != nil {
			end.EndDay()
		}
		free <- buf
	}
	return nil
}

// produce builds days [from, to) into buffers taken from free and hands
// each to ready in order. It exits early once stop is closed, and closes
// done on exit.
func (g *Generator) produce(from, to campus.Day, free <-chan *dayBuf, ready chan<- *dayBuf, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for day := from; day < to; day++ {
		var buf *dayBuf
		select {
		case buf = <-free:
		case <-stop:
			return
		}
		g.buildDay(day, buf)
		select {
		case ready <- buf:
		case <-stop:
			return
		}
	}
}

// dayState carries one day's shared generation context. day is the real
// calendar day (timestamps); behaviorDay drives every behavioral decision —
// in counterfactual (NoPandemic) mode it maps onto the matching February
// weekday so the whole window behaves pre-pandemic. Each build worker
// holds its own copy, pointing out at its chunk.
type dayState struct {
	day         campus.Day
	behaviorDay campus.Day
	start       time.Time
	end         time.Time
	hours       *[24]float64
	// seasonal is a mild end-of-term uptick applied in counterfactual
	// mode (ordinary years see slightly more traffic late in the term).
	seasonal float64
	out      *chunk
}

// deviceDaySeed derives a stable per-(device, day) RNG seed (splitmix64).
func deviceDaySeed(seed int64, index int, day campus.Day) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(index)*0xbf58476d1ce4e5b9 + uint64(day)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// at returns a concrete time within the day: the sampled hour plus uniform
// minutes/seconds.
func (g *Generator) at(ds *dayState, rng *rand.Rand, hour int) time.Time {
	return ds.start.Add(time.Duration(hour)*time.Hour +
		time.Duration(rng.Intn(3600))*time.Second +
		time.Duration(rng.Intn(1000))*time.Millisecond)
}

// flowSpec describes one flow to emit.
type flowSpec struct {
	domain   string
	start    time.Time
	dur      time.Duration
	bytes    int64 // responder (download) bytes
	proto    flow.Proto
	respPort uint16
	withDNS  bool
	// directAddr overrides DNS resolution (Zoom media servers connected
	// by address from the published list).
	directAddr netip.Addr
}

// emitFlow appends one flow (and possibly its DNS resolution and a small
// resolver flow) to the day buffer.
func (g *Generator) emitFlow(ds *dayState, rng *rand.Rand, dev *Device, devIP netip.Addr, spec flowSpec) {
	if spec.start.Before(ds.start) {
		spec.start = ds.start
	}
	if !spec.start.Before(ds.end) {
		spec.start = ds.end.Add(-time.Minute)
	}
	if spec.dur < time.Second {
		spec.dur = time.Second
	}
	if maxDur := ds.end.Sub(spec.start); spec.dur > maxDur {
		spec.dur = maxDur
	}

	server := spec.directAddr
	srcAddr := devIP
	if !server.IsValid() {
		// Dual-stack devices carry a share of traffic over IPv6 from
		// their SLAAC address; DNS queries still travel over IPv4.
		useV6 := dev.V6Capable && rng.Float64() < 0.25
		var entry dnssim.Entry
		var ok bool
		if useV6 {
			entry, ok = g.resolver.QueryAAAA(devIP, spec.domain, spec.start.Add(-300*time.Millisecond))
			if ok {
				srcAddr = dev.MAC.EUI64Addr(universe.ResidenceNetV6)
			}
		}
		if !ok {
			entry, ok = g.resolver.Query(devIP, spec.domain, spec.start.Add(-300*time.Millisecond))
		}
		if !ok {
			return // unregistered domain: nothing to emit
		}
		server = entry.Answer
		if spec.withDNS {
			ds.out.addDNS(entry)
			// A fraction of resolver lookups also show up as visible
			// UDP/53 flows to the campus resolver (never DNS-labeled —
			// they exercise the pipeline's unlabeled path).
			if rng.Float64() < 0.25 {
				ds.out.addFlow(flow.Record{
					Start: entry.Time, Duration: 40 * time.Millisecond,
					OrigAddr: devIP, OrigPort: uint16(32768 + rng.Intn(28000)),
					RespAddr: g.reg.ResolverAddr(), RespPort: 53,
					Proto:     flow.ProtoUDP,
					OrigBytes: 64, RespBytes: 220, OrigPkts: 1, RespPkts: 1,
					Service: "dns",
				})
			}
		}
	}

	if spec.respPort == 0 {
		spec.respPort = 443
	}
	if spec.proto == 0 {
		spec.proto = flow.ProtoTCP
	}
	if spec.bytes < 256 {
		spec.bytes = 256
	}
	origBytes := spec.bytes/25 + int64(rng.Intn(2048))
	service := "tls"
	if spec.respPort == 80 {
		service = "http"
	}
	rec := flow.Record{
		Start: spec.start, Duration: spec.dur,
		OrigAddr: srcAddr, OrigPort: uint16(32768 + rng.Intn(28000)),
		RespAddr: server, RespPort: spec.respPort,
		Proto:     spec.proto,
		OrigBytes: origBytes, RespBytes: spec.bytes,
		OrigPkts: origBytes/1200 + 1, RespPkts: spec.bytes/1380 + 1,
		Service: service,
	}
	rec.State = connStateFor(&rec)
	ds.out.addFlow(rec)
}

// connStateFor stamps a realistic conn_state mix: mostly clean SF closes
// with a small tail of aborts and still-open connections. Derived from the
// already-drawn ephemeral port so no extra randomness enters the stream.
func connStateFor(rec *flow.Record) flow.ConnState {
	if rec.Proto != flow.ProtoTCP {
		return flow.StateOther
	}
	switch v := rec.OrigPort % 1000; {
	case v < 8:
		return flow.StateRSTO
	case v < 12:
		return flow.StateRSTR
	case v < 20:
		return flow.StateS1
	default:
		return flow.StateSF
	}
}

// emitHTTPMeta appends a cleartext HTTP request's metadata plus its small
// port-80 flow.
func (g *Generator) emitHTTPMeta(ds *dayState, rng *rand.Rand, dev *Device, devIP netip.Addr, host, ua string, t time.Time) {
	if ua == "" {
		return
	}
	if t.Before(ds.start) {
		t = ds.start
	}
	if !t.Before(ds.end) {
		t = ds.end.Add(-time.Second)
	}
	ds.out.addHTTP(httplog.Entry{Time: t, Client: devIP, Host: host, UserAgent: ua})
	g.emitFlow(ds, rng, dev, devIP, flowSpec{
		domain: host, start: t, dur: 2 * time.Second,
		bytes: int64(2<<10 + rng.Intn(20<<10)), respPort: 80, withDNS: rng.Float64() < 0.5,
	})
}
