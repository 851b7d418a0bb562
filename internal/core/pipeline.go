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
	matcher *appsig.Matcher
	pseudo  *anonymize.Pseudonymizer

	// join is the pipeline's DNS/DHCP tables (join.go).
	join     *localJoin
	stitcher *appsig.Stitcher
	// geoCls resolves a server's February midpoint point; geoClsAblate
	// resolves it with CDN answers included, so the §4.2 ablation is
	// available from every Dataset.
	geoCls, geoClsAblate *geo.Classifier
	iotDet               *devclass.IoTDetector
	classifier           *devclass.Classifier
	sigDomains           map[string]bool // union of IoT signature domains
	domainBit            map[string]int  // registered domain -> bitmap index

	// servers and domains are the per-run fact tables (facts.go), indexed
	// by the labeler's server and domain numbering.
	servers []serverFacts
	domains []domainFacts

	devices map[anonymize.DeviceID]*deviceState
	// byMAC is the device slot table: each MAC's state, reached without
	// the keyed-HMAC pseudonym (SHA-256) or the pseudonym-keyed maps.
	byMAC map[packet.MAC]*deviceState
	weeks [4]weekWindow

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

// deviceState is everything accumulated for one device, including the
// evidence behind its three verdicts: the presence bitmap (visitor filter,
// post-shutdown membership), the Switch counters and the two February
// midpoints. A checkpoint writes it as one device record.
type deviceState struct {
	id          anonymize.DeviceID
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

	// The verdict evidence. A zero value is a device without admitted
	// flows (for a midpoint, without a February flow the classifier
	// accepts), and gives that device's verdicts: not resident, not a
	// Switch, Unknown.
	days           anonymize.DayBitmap
	switches       appsig.SwitchCounters
	geo, geoAblate geo.Midpoint
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
		matcher:    appsig.NewMatcher(zoomNets),
		pseudo:     pseudo,
		join:       newLocalJoin(),
		iotDet:     iotDet,
		classifier: devclass.NewClassifier(iotDet),
		sigDomains: sigDomains,
		domainBit:  domainBit,
		devices:    make(map[anonymize.DeviceID]*deviceState),
		byMAC:      make(map[packet.MAC]*deviceState),
		om:         opts.Obs,
	}
	geoDB := geo.FromRegistry(reg)
	p.geoCls = geo.NewClassifier(geoDB)
	p.geoClsAblate = geo.NewClassifier(geoDB)
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

// DeviceID exposes the pseudonym for a MAC — used by validation harnesses
// that compare against generator ground truth.
func (p *Pipeline) DeviceID(m packet.MAC) anonymize.DeviceID {
	if d := p.byMAC[m]; d != nil {
		return d.id
	}
	return p.pseudo.Device(m)
}

// device returns the mutable state of an admitted event's device,
// allocating it on first sight, touches it and records the MAC on it. The
// lease span that attributed the event holds the device's slot from its
// first use, so only an EUI-64 client or a span's first event probes
// byMAC, and only a MAC's first event computes its pseudonym.
func (p *Pipeline) device(a *admission) *deviceState {
	var d *deviceState
	if a.lease != nil {
		d = a.lease.dev
	}
	if d == nil {
		if d = p.byMAC[a.mac]; d == nil {
			d = p.deviceByID(p.pseudo.Device(a.mac))
			p.byMAC[a.mac] = d
		}
		if a.lease != nil {
			a.lease.dev = d
		}
	}
	p.touch(d)
	d.mac = a.mac
	return d
}

// deviceByID returns the mutable state for a pseudonym, allocating it on
// first sight.
func (p *Pipeline) deviceByID(id anonymize.DeviceID) *deviceState {
	d := p.devices[id]
	if d == nil {
		d = &deviceState{
			id:    id,
			daily: make([]float32, campus.NumDays),
			zoom:  make([]float32, campus.NumDays),
		}
		p.devices[id] = d
	}
	return d
}

// touch is the touched-device hook every state mutation passes (the flow
// and HTTP paths through device, session accounting directly): the first
// access per seal generation records the device on the day's touched
// list, which is exactly the set a delta snapshot must re-render.
func (p *Pipeline) touch(d *deviceState) {
	if d.sealEpoch != p.curSeal {
		d.sealEpoch = p.curSeal
		p.touched = append(p.touched, d.id)
	}
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
	d := p.device(&a)
	if d.uas == nil {
		d.uas = make(map[string]struct{}, 4)
	}
	if len(d.uas) < 8 {
		d.uas[e.UserAgent] = struct{}{}
	}
}

// Flow implements trace.Sink: the main ingest path, admission (join.go)
// then accounting. Within the package the record travels by pointer.
func (p *Pipeline) Flow(r flow.Record) {
	t := p.om.Now()
	a := p.admitFlow(&r)
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

	day, srv, dom, labeled := a.day, a.srv, p.domain(a.dom), a.labeled
	d := p.device(a)
	m.Add(obs.StageDHCPNormalize, 0)
	m.Add(obs.StageAggregate, bytes)
	t = m.Lap(obs.StageDHCPNormalize, t)
	d.days.Set(day)
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
	if labeled && dom.bit >= 0 {
		switch {
		case month == campus.February:
			d.sitesFeb.set(dom.bit)
		case month == campus.April || month == campus.May:
			d.sitesAprMay.set(dom.bit)
		}
	}

	// February geolocation midpoint (§4.2), plus its ablation twin.
	if month == campus.February {
		srv.geo.fold(&d.geo, bytes)
		srv.geoAblate.fold(&d.geoAblate, bytes)
	}

	// IoT signature evidence.
	if labeled && dom.sig {
		if d.sigDomains == nil {
			d.sigDomains = make(map[string]bool, 4)
		}
		d.sigDomains[dom.name] = true
	}

	// Switch detection sees every flow (it needs the total-bytes
	// denominator).
	d.switches.Add(dom.nintendo, bytes)
	t = m.Lap(obs.StageAggregate, t)

	// Application accounting.
	app, matched := srv.app(dom)
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
		group := srv.group
		if app == appsig.AppZoom {
			group = GroupWork
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
		p.stitcher.Add(uint64(d.id), app, dom.name, r.Start, r.Duration, bytes)
		m.Lap(obs.StageSessionStitch, ts)
	case appsig.AppSteam:
		if inMonth {
			d.steam[month].Bytes += bytes
			d.steam[month].Connections++
		}
	case appsig.AppNintendo:
		if dom.nintendo == appsig.NintendoGameplayTraffic {
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
	d := p.deviceByID(anonymize.DeviceID(s.Device))
	p.touch(d)
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
