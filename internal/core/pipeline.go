// Package core is the measurement pipeline itself — the reproduction of the
// system described in §3 of the paper (DeKoven et al.'s passive monitoring
// infrastructure as used by Ukani et al.).
//
// The pipeline consumes the capture's artifact streams in time order:
//
//	flows      — Zeek-style conn records mirrored from the residence switch
//	DNS log    — campus resolver queries (for IP → domain labeling)
//	DHCP log   — lease bindings (for IP → device/MAC normalization)
//	HTTP log   — cleartext User-Agent metadata (for device classification)
//
// and applies, in one streaming pass: the tap's excluded-network filter,
// DHCP normalization, keyed pseudonymization (raw identifiers never leave
// this package), DNS labeling, application signature matching with session
// stitching, device classification evidence collection, February midpoint
// geolocation, and per-device/per-day/per-app aggregation. Finalize turns
// the accumulated state into an immutable Dataset that the experiments
// interrogate.
package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"repro/internal/anonymize"
	"repro/internal/appsig"
	"repro/internal/campus"
	"repro/internal/devclass"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/geo"
	"repro/internal/httplog"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/universe"
)

// Options configures a Pipeline. Zero value fields take defaults.
type Options struct {
	// Key is the pseudonymization key; nil draws a random one (the
	// production configuration — results are unlinkable across runs).
	Key []byte
	// SessionGap is the stitcher's merge gap (default 0: strictly
	// overlapping flows, as in the paper).
	SessionGap time.Duration
	// IoTThreshold is the Saidi detection threshold (default 0.5).
	IoTThreshold float64
	// IncludeCDNsInMidpoint disables the §4.2 CDN exclusion (ablation).
	IncludeCDNsInMidpoint bool
	// DisableTapFilter processes flows to excluded networks instead of
	// dropping them (ablation).
	DisableTapFilter bool
	// Obs receives per-stage counters and sampled timings; nil disables
	// instrumentation entirely (zero-allocation fast path). A sharded
	// pipeline shares one Metrics across every shard — all counters are
	// atomic.
	Obs *obs.Metrics
}

// Stats counts what the pipeline saw and filtered.
type Stats struct {
	FlowsProcessed    int64
	FlowsTapDropped   int64
	FlowsUnattributed int64 // no DHCP binding for the client address
	FlowsUnlabeled    int64 // no DNS label for the server address
	FlowsOutOfWindow  int64
	DNSEntries        int64
	HTTPEntries       int64
	Leases            int64
	BytesProcessed    int64
}

// Pipeline is the streaming ingest engine. It implements trace.Sink, so a
// generator can drive it directly; the log-file readers in cmd/ drive it
// identically. Not safe for concurrent use.
type Pipeline struct {
	opts    Options
	reg     *universe.Registry
	geoDB   *geo.DB
	matcher *appsig.Matcher
	pseudo  *anonymize.Pseudonymizer

	// join is the DNS/DHCP join state: private tables for a single
	// pipeline, a sequence-pinned view over the dispatcher's shared
	// stores for a shard (see join.go).
	join      joinState
	presence  *anonymize.PresenceTracker
	stitcher  *appsig.Stitcher
	switchDet *appsig.SwitchDetector
	geoCls    *geo.Classifier
	// geoClsAblate runs the same midpoints with the CDN-exclusion setting
	// inverted, so the §4.2 ablation is available from every Dataset.
	geoClsAblate *geo.Classifier
	iotDet       *devclass.IoTDetector
	classifier   *devclass.Classifier
	sigDomains   map[string]bool // union of IoT signature domains
	domainBit    map[string]int  // registered domain -> bitmap index

	devices map[anonymize.DeviceID]*deviceState
	// idCache memoizes the keyed-HMAC pseudonym per MAC: the mapping is
	// deterministic under one key, and computing it per flow would put
	// SHA-256 on the hot path.
	idCache map[packet.MAC]anonymize.DeviceID
	weeks   [4]weekWindow

	// om is the observability sink (nil when disabled; see Options.Obs).
	om *obs.Metrics

	// Incremental day-seal state (see partial.go): touched lists the
	// devices mutated since the last seal (a device is on the list iff its
	// sealEpoch equals curSeal), lastSealStats the cumulative Stats at the
	// last seal.
	touched       []anonymize.DeviceID
	curSeal       int
	lastSealStats Stats

	stats     Stats
	finalized bool
}

type weekWindow struct {
	start time.Time
	end   time.Time
}

// CategoryGroup is the coarse work/leisure taxonomy used by the
// category-share extension analysis.
type CategoryGroup int

// Category groups.
const (
	GroupWork   CategoryGroup = iota // education, conferencing, campus
	GroupVideo                       // video streaming
	GroupSocial                      // social media, messaging
	GroupGaming                      // gaming platforms and consoles
	GroupOther                       // web, news, music, infra, iot
	NumGroups
)

// String returns the group label.
func (g CategoryGroup) String() string {
	switch g {
	case GroupWork:
		return "work"
	case GroupVideo:
		return "video"
	case GroupSocial:
		return "social"
	case GroupGaming:
		return "gaming"
	default:
		return "other"
	}
}

// groupOfCategory maps a universe category to its group.
func groupOfCategory(c universe.Category) CategoryGroup {
	switch c {
	case universe.CatEducation, universe.CatConferencing, universe.CatCampus:
		return GroupWork
	case universe.CatVideo:
		return GroupVideo
	case universe.CatSocial, universe.CatMessaging:
		return GroupSocial
	case universe.CatGaming:
		return GroupGaming
	default:
		return GroupOther
	}
}

// deviceState is everything accumulated for one device.
type deviceState struct {
	mac         packet.MAC
	daily       []float32 // bytes per study day
	zoom        []float32
	gameplay    []float32 // nil until nintendo gameplay seen
	hourWeek    [4][]float32
	groupBytes  [campus.NumMonths][NumGroups]int64
	zoomHourly  [2][24]float32 // [weekday, weekend] × hour, online term
	sitesFeb    domainBitmap
	sitesAprMay domainBitmap
	uas         map[string]struct{}
	sigDomains  map[string]bool
	social      [campus.NumMonths][3]SocialMonth
	steam       [campus.NumMonths]SteamMonth
	flows       int64
	// sealEpoch marks the seal generation that last mutated this device;
	// equal to the pipeline's curSeal iff the device is on the touched
	// list for the day in progress.
	sealEpoch int
}

// SocialMonth is one device's monthly usage of one social platform.
type SocialMonth struct {
	Duration time.Duration
	Sessions int
}

// SteamMonth is one device's monthly Steam usage.
type SteamMonth struct {
	Bytes       int64
	Connections int
}

// domainBitmap tracks which registered domains a device visited.
type domainBitmap [6]uint64

func (b *domainBitmap) set(i int) {
	if i >= 0 && i < len(b)*64 {
		b[i/64] |= 1 << (uint(i) % 64)
	}
}

func (b *domainBitmap) count() int {
	n := 0
	for _, w := range b {
		for w != 0 {
			w &= w - 1
			n++
		}
	}
	return n
}

// NewPipeline builds a pipeline over the given universe registry (which
// provides the tap-exclusion table, the geolocation feed, and the Zoom IP
// list).
func NewPipeline(reg *universe.Registry, opts Options) (*Pipeline, error) {
	return newPipeline(reg, opts, nil)
}

// newPipeline builds a pipeline over the given join state; nil selects a
// private localJoin (the single-pipeline configuration). The sharded
// dispatcher passes each shard a snapshotJoin over its shared stores.
func newPipeline(reg *universe.Registry, opts Options, join joinState) (*Pipeline, error) {
	var pseudo *anonymize.Pseudonymizer
	var err error
	if opts.Key != nil {
		pseudo, err = anonymize.NewPseudonymizer(opts.Key)
	} else {
		pseudo, err = anonymize.NewRandomPseudonymizer()
	}
	if err != nil {
		return nil, err
	}
	var zoomNets []netip.Prefix
	for _, pi := range reg.Prefixes() {
		if pi.Owner == "zoom" {
			zoomNets = append(zoomNets, pi.Prefix)
		}
	}
	if len(zoomNets) == 0 {
		return nil, fmt.Errorf("core: registry missing zoom prefixes")
	}
	sigs := devclass.SignaturesFromRegistry(reg)
	iotDet := devclass.NewIoTDetector(opts.IoTThreshold, sigs)
	sigDomains := make(map[string]bool)
	for _, s := range sigs {
		for _, d := range s.Domains {
			sigDomains[d] = true
		}
	}
	domains := reg.Domains()
	sort.Strings(domains)
	domainBit := make(map[string]int, len(domains))
	for i, d := range domains {
		domainBit[d] = i
	}
	if len(domains) > len(domainBitmap{})*64 {
		return nil, fmt.Errorf("core: %d domains exceed bitmap capacity", len(domains))
	}

	if join == nil {
		join = newLocalJoin()
	}
	p := &Pipeline{
		opts:       opts,
		reg:        reg,
		geoDB:      geo.FromRegistry(reg),
		matcher:    appsig.NewMatcher(zoomNets),
		pseudo:     pseudo,
		join:       join,
		presence:   anonymize.NewPresenceTracker(),
		switchDet:  appsig.NewSwitchDetector(),
		iotDet:     iotDet,
		classifier: devclass.NewClassifier(iotDet),
		sigDomains: sigDomains,
		domainBit:  domainBit,
		devices:    make(map[anonymize.DeviceID]*deviceState),
		idCache:    make(map[packet.MAC]anonymize.DeviceID),
		om:         opts.Obs,
	}
	p.geoCls = geo.NewClassifier(p.geoDB)
	p.geoCls.IncludeCDNs = opts.IncludeCDNsInMidpoint
	p.geoClsAblate = geo.NewClassifier(p.geoDB)
	p.geoClsAblate.IncludeCDNs = !opts.IncludeCDNsInMidpoint
	p.stitcher = appsig.NewStitcher(opts.SessionGap, p.onSession)
	for i, anchor := range campus.FigureWeeks {
		p.weeks[i] = weekWindow{start: anchor, end: anchor.Add(7 * 24 * time.Hour)}
	}
	// Seal generations start at 1 so a freshly allocated deviceState
	// (sealEpoch 0) always registers as touched.
	p.curSeal = 1
	return p, nil
}

// DeviceID exposes the pseudonym for a MAC — used on every flow internally
// and by validation harnesses that compare against generator ground truth.
func (p *Pipeline) DeviceID(m packet.MAC) anonymize.DeviceID {
	if id, ok := p.idCache[m]; ok {
		return id
	}
	id := p.pseudo.Device(m)
	p.idCache[m] = id
	return id
}

// device returns (allocating on first sight) the mutable state for a
// pseudonym. Every state mutation goes through here — the flow path, the
// HTTP path, and session accounting — so it doubles as the touched-device
// hook: the first access per seal generation records the device on the
// day's touched list, which is exactly the set a delta snapshot must
// re-render.
func (p *Pipeline) device(id anonymize.DeviceID) *deviceState {
	d := p.devices[id]
	if d == nil {
		d = &deviceState{
			daily: make([]float32, campus.NumDays),
			zoom:  make([]float32, campus.NumDays),
		}
		p.devices[id] = d
	}
	if d.sealEpoch != p.curSeal {
		d.sealEpoch = p.curSeal
		p.touched = append(p.touched, id)
	}
	return d
}

// leaseIndex is an append-only, time-aware IP→MAC index over lease
// bindings arriving in non-decreasing start order.
type leaseIndex map[netip.Addr][]dhcp.Lease

// observe folds one binding in, coalescing renewals of the same holder.
func (idx leaseIndex) observe(l dhcp.Lease) {
	spans := idx[l.Addr]
	if n := len(spans); n > 0 && spans[n-1].MAC == l.MAC && !l.Start.After(spans[n-1].End) {
		if l.End.After(spans[n-1].End) {
			spans[n-1].End = l.End
		}
		idx[l.Addr] = spans
		return
	}
	idx[l.Addr] = append(spans, l)
}

// lookup resolves a client address at a time. Spans arrive in start order
// and, for a healthy DHCP server, never nest (a renewal extends the same
// span; a different device only gets the address after expiry), so once a
// span ends before t no older span can contain it.
func (idx leaseIndex) lookup(addr netip.Addr, t time.Time) (packet.MAC, bool) {
	spans := idx[addr]
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Contains(t) {
			return spans[i].MAC, true
		}
		if t.After(spans[i].End) {
			break
		}
	}
	return packet.MAC{}, false
}

// Lease implements trace.Sink: index a DHCP binding. Bindings must arrive
// in non-decreasing start order.
func (p *Pipeline) Lease(l dhcp.Lease) {
	p.stats.Leases++
	p.om.Add(obs.StageIngest, 0)
	p.join.observeLease(l)
}

// lookupMAC resolves a client address at a time: DHCP leases for IPv4,
// EUI-64 extraction for SLAAC-configured IPv6 residence addresses (no
// DHCPv6 logs exist; the interface identifier carries the MAC directly).
func (p *Pipeline) lookupMAC(addr netip.Addr, t time.Time) (packet.MAC, bool) {
	if mac, ok := p.join.leaseMAC(addr, t); ok {
		return mac, true
	}
	if universe.ResidenceNetV6.Contains(addr) {
		return packet.MACFromEUI64(addr)
	}
	return packet.MAC{}, false
}

// DNS implements trace.Sink: feed the labeler.
func (p *Pipeline) DNS(e dnssim.Entry) {
	p.stats.DNSEntries++
	p.om.Add(obs.StageIngest, 0)
	p.join.observeDNS(e)
}

// HTTPMeta implements trace.Sink: collect User-Agent evidence.
func (p *Pipeline) HTTPMeta(e httplog.Entry) {
	p.stats.HTTPEntries++
	p.om.Add(obs.StageIngest, 0)
	mac, ok := p.lookupMAC(e.Client, e.Time)
	if !ok || e.UserAgent == "" {
		return
	}
	d := p.device(p.DeviceID(mac))
	d.mac = mac
	if d.uas == nil {
		d.uas = make(map[string]struct{}, 4)
	}
	if len(d.uas) < 8 {
		d.uas[e.UserAgent] = struct{}{}
	}
}

// Flow implements trace.Sink: the main ingest path.
//
// Observability (when Options.Obs is set) counts the flow at every stage
// and, for a sampled subset, laps a timer across the stage boundaries. The
// out-of-window drop is attributed to the tap-filter stage (both are
// capture-boundary cuts). With a nil Metrics every instrumentation call is
// an inlined nil-check no-op — the nil-receiver contract package obs
// documents and the obsnil analyzer enforces — so instrumentation calls
// are made bare, never wrapped in a redundant `if m != nil` guard.
func (p *Pipeline) Flow(r flow.Record) {
	m := p.om
	t := m.Now()
	m.Add(obs.StageIngest, r.TotalBytes())
	// The tap's excluded high-volume networks never reach the pipeline.
	if !p.opts.DisableTapFilter && p.reg.TapExcluded(r.RespAddr) {
		p.stats.FlowsTapDropped++
		m.Drop(obs.StageTapFilter)
		return
	}
	day, ok := campus.DayOf(r.Start)
	if !ok {
		p.stats.FlowsOutOfWindow++
		m.Drop(obs.StageTapFilter)
		return
	}
	m.Add(obs.StageTapFilter, 0)
	t = m.Lap(obs.StageTapFilter, t)
	mac, ok := p.lookupMAC(r.OrigAddr, r.Start)
	if !ok {
		p.stats.FlowsUnattributed++
		m.Drop(obs.StageDHCPNormalize)
		return
	}
	p.stats.FlowsProcessed++
	bytes := r.TotalBytes()
	p.stats.BytesProcessed += bytes

	id := p.DeviceID(mac)
	m.Add(obs.StageDHCPNormalize, 0)
	m.Add(obs.StageAggregate, bytes)
	t = m.Lap(obs.StageDHCPNormalize, t)
	p.presence.Observe(id, day)
	d := p.device(id)
	d.mac = mac
	d.flows++
	d.daily[day] += float32(bytes)

	// Hour-of-week accumulation for the Figure 3 weeks.
	for w := range campus.FigureWeeks {
		if !r.Start.Before(p.weeks[w].start) && r.Start.Before(p.weeks[w].end) {
			if d.hourWeek[w] == nil {
				d.hourWeek[w] = make([]float32, campus.HoursPerWeek)
			}
			d.hourWeek[w][campus.HourOfWeek(r.Start)] += float32(bytes)
		}
	}

	t = m.Lap(obs.StageAggregate, t)

	// Domain labeling via the DNS join.
	domain, labeled := p.join.label(r.RespAddr, r.Start)
	if !labeled {
		p.stats.FlowsUnlabeled++
		m.Drop(obs.StageDNSLabel)
	} else {
		m.Add(obs.StageDNSLabel, 0)
	}
	t = m.Lap(obs.StageDNSLabel, t)

	month, inMonth := campus.MonthOf(r.Start)

	// Distinct-site tracking (§4.1): February vs April+May.
	if bit, known := p.domainBit[domain]; known && labeled {
		switch {
		case month == campus.February:
			d.sitesFeb.set(bit)
		case month == campus.April || month == campus.May:
			d.sitesAprMay.set(bit)
		}
	}

	// February geolocation midpoint (§4.2), plus its ablation twin.
	if month == campus.February {
		p.geoCls.AddFlow(uint64(id), r.RespAddr, bytes)
		p.geoClsAblate.AddFlow(uint64(id), r.RespAddr, bytes)
	}

	// IoT signature evidence.
	if labeled && p.sigDomains[domain] {
		if d.sigDomains == nil {
			d.sigDomains = make(map[string]bool, 4)
		}
		d.sigDomains[domain] = true
	}

	// Switch detection sees every flow (it needs the total-bytes
	// denominator).
	p.switchDet.AddFlow(uint64(id), domain, bytes)
	t = m.Lap(obs.StageAggregate, t)

	// Application accounting.
	app, matched := p.matcher.App(domain, r.RespAddr)
	if matched {
		m.Add(obs.StageAppsigMatch, bytes)
	} else {
		m.Drop(obs.StageAppsigMatch)
	}
	t = m.Lap(obs.StageAppsigMatch, t)

	// Work/leisure category accounting (extension analysis). Zoom media
	// flows connect by direct IP outside the domain-mapped space, so the
	// app match overrides the registry's category.
	if inMonth {
		group := GroupOther
		if app == appsig.AppZoom {
			group = GroupWork
		} else if info, ok := p.reg.LookupAddr(r.RespAddr); ok {
			group = groupOfCategory(info.Service.Category)
		}
		d.groupBytes[month][group] += bytes
	}

	if !matched {
		m.Lap(obs.StageAggregate, t)
		return
	}
	switch app {
	case appsig.AppZoom:
		d.zoom[day] += float32(bytes)
		if campus.PhaseOf(r.Start) == campus.OnlineTerm {
			idx := 0
			if day.IsWeekend() {
				idx = 1
			}
			d.zoomHourly[idx][r.Start.In(campus.Timezone).Hour()] += float32(bytes)
		}
	case appsig.AppFacebook, appsig.AppInstagram, appsig.AppTikTok:
		m.Add(obs.StageSessionStitch, bytes)
		ts := m.Now()
		p.stitcher.Add(uint64(id), app, domain, r.Start, r.Duration, bytes)
		m.Lap(obs.StageSessionStitch, ts)
	case appsig.AppSteam:
		if inMonth {
			d.steam[month].Bytes += bytes
			d.steam[month].Connections++
		}
	case appsig.AppNintendo:
		if appsig.ClassifyNintendo(domain) == appsig.NintendoGameplayTraffic {
			if d.gameplay == nil {
				d.gameplay = make([]float32, campus.NumDays)
			}
			d.gameplay[day] += float32(bytes)
		}
	}
	m.Lap(obs.StageAggregate, t)
}

// onSession receives stitched sessions and accounts monthly durations.
func (p *Pipeline) onSession(s appsig.Session) {
	month, idx, ok := sessionCell(s)
	if !ok {
		return
	}
	d := p.device(anonymize.DeviceID(s.Device))
	d.social[month][idx].Duration += s.Duration()
	d.social[month][idx].Sessions++
}

// sessionCell resolves the (month, social-app column) a stitched session
// accounts to; ok is false for sessions outside the study months or apps
// not tracked by Figure 6. Shared by final accounting (onSession) and the
// snapshot overlay of still-open sessions, so both attribute identically.
func sessionCell(s appsig.Session) (campus.Month, int, bool) {
	month, ok := campus.MonthOf(s.Start)
	if !ok {
		return 0, 0, false
	}
	idx := socialIndex(s.App)
	if idx < 0 {
		return 0, 0, false
	}
	return month, idx, true
}

// socialIndex maps an app name to its Figure 6 column.
func socialIndex(app string) int {
	switch app {
	case appsig.AppFacebook:
		return 0
	case appsig.AppInstagram:
		return 1
	case appsig.AppTikTok:
		return 2
	default:
		return -1
	}
}

// Stats returns ingest counters.
func (p *Pipeline) Stats() Stats { return p.stats }
