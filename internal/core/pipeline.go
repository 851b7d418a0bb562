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
	// DisableTapFilter processes flows to excluded networks instead of
	// dropping them (ablation).
	DisableTapFilter bool
	// Obs receives per-stage counters and sampled timings; nil disables
	// instrumentation entirely (zero-allocation fast path).
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

	// join is the pipeline's DNS/DHCP tables (join.go).
	join      *localJoin
	presence  *anonymize.PresenceTracker
	stitcher  *appsig.Stitcher
	switchDet *appsig.SwitchDetector
	geoCls    *geo.Classifier
	// geoClsAblate runs the same midpoints with CDN answers included, so
	// the §4.2 ablation is available from every Dataset.
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
	iotDet := devclass.NewIoTDetector(devclass.DefaultIoTThreshold, sigs)
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

	p := &Pipeline{
		opts:       opts,
		reg:        reg,
		geoDB:      geo.FromRegistry(reg),
		matcher:    appsig.NewMatcher(zoomNets),
		pseudo:     pseudo,
		join:       newLocalJoin(),
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
	p.geoClsAblate = geo.NewClassifier(p.geoDB)
	p.geoClsAblate.IncludeCDNs = true
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

// Lease implements trace.Sink: index a DHCP binding. Bindings must arrive
// in non-decreasing start order.
func (p *Pipeline) Lease(l dhcp.Lease) {
	p.stats.Leases++
	p.om.Add(obs.StageIngest, 0)
	p.join.leaseIdx.observe(l)
}

// DNS implements trace.Sink: feed the labeler.
func (p *Pipeline) DNS(e dnssim.Entry) {
	p.stats.DNSEntries++
	p.om.Add(obs.StageIngest, 0)
	p.join.labeler.Observe(e)
}

// HTTPMeta implements trace.Sink: collect User-Agent evidence.
func (p *Pipeline) HTTPMeta(e httplog.Entry) {
	a := admitHTTP(p.join, &e)
	if !p.stats.intakeHTTP(p.om, a.cut) || e.UserAgent == "" {
		return
	}
	d := p.device(p.DeviceID(a.mac))
	d.mac = a.mac
	if d.uas == nil {
		d.uas = make(map[string]struct{}, 4)
	}
	if len(d.uas) < 8 {
		d.uas[e.UserAgent] = struct{}{}
	}
}

// Flow implements trace.Sink: the main ingest path, admission (join.go)
// then accounting.
func (p *Pipeline) Flow(r flow.Record) {
	t := p.om.Now()
	a := admitFlow(p.join, p.reg, !p.opts.DisableTapFilter, &r)
	p.account(&r, &a, t)
}

// account is Flow's accounting step: every counter and aggregate a flow
// moves, given its admission.
//
// Observability (when Options.Obs is set) counts the flow at every stage
// and, for a sampled subset (t non-zero), laps a timer across the stage
// boundaries; the admission's lookups land in the tap-filter lap. The
// out-of-window drop is attributed to the tap-filter stage (both are
// capture-boundary cuts). With a nil Metrics every instrumentation call is
// an inlined nil-check no-op — the nil-receiver contract package obs
// documents and the obsnil analyzer enforces — so instrumentation calls
// are made bare, never wrapped in a redundant `if m != nil` guard.
func (p *Pipeline) account(r *flow.Record, a *admission, t time.Time) {
	m := p.om
	bytes := r.TotalBytes()
	if !p.stats.intakeFlow(m, bytes, a.cut) {
		return
	}
	t = m.Lap(obs.StageTapFilter, t)
	p.stats.FlowsProcessed++
	p.stats.BytesProcessed += bytes

	mac, day, domain, labeled := a.mac, a.day, a.label, a.labeled
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
