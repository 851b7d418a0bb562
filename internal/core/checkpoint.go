package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"repro/internal/anonymize"
	"repro/internal/appsig"
	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/geo"
	"repro/internal/packet"
	"repro/internal/universe"
)

// CheckpointCodecVersion is the pipeline-checkpoint payload format
// version. It enters every per-day stage-cache key, so any wire-format
// change cleanly invalidates cached checkpoints; a stale payload that
// slips past the key is still rejected by the header check.
const CheckpointCodecVersion = 2

// EncodeCheckpoint serializes the pipeline's complete mutable state — run
// stats, one record per device (its accumulators, then its verdict
// evidence: presence bitmap, Switch counters and both February
// midpoints), the DNS label index, the DHCP lease index and the open
// stitcher sessions — so that a pipeline restored from the payload and
// fed the remaining days produces bit-for-bit the Dataset a monolithic
// run would. This is the unit the per-day stats cache
// stores: one checkpoint per sealed day, replay only the days that follow.
//
// A pipeline can be checkpointed only at a seal boundary (nothing
// accumulated since the last SealDay): mid-day state would silently omit
// the in-progress day's touched set. Static configuration (key, registry,
// options) is NOT in the payload — the caller must restore with the same
// ones, which the stage cache guarantees by keying on them.
//
// The encoding reuses the dataset codec's primitives: varints, raw IEEE
// float bit patterns (restored midpoints reproduce every Classify verdict
// exactly), nil-vs-empty-preserving slices, times as UnixNano (all
// pipeline time handling is absolute or via explicit campus.Timezone
// conversion, so the wall-clock location is irrelevant), a domain string
// table for the label index, and the header and sha256 trailer all three
// codecs share (frame).
func (p *Pipeline) EncodeCheckpoint() ([]byte, error) {
	if p.finalized {
		return nil, fmt.Errorf("core: checkpoint: pipeline already finalized")
	}
	if len(p.touched) != 0 {
		return nil, fmt.Errorf("core: checkpoint: %d devices accumulated since the last seal (checkpoint at a SealDay boundary)", len(p.touched))
	}
	lj := p.join

	e := checkpointFrame.header(1 << 20)
	devs := make([]*deviceState, 0, len(p.devices))
	for _, st := range p.devices {
		devs = append(devs, st)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i].id < devs[j].id })

	encStats(e, &p.stats)
	encDevices(e, devs)
	encLabelIndex(e, lj.labeler.ExportSpans())
	encLeaseIndex(e, lj.leaseIdx)
	encOpenSessions(e, p.stitcher.ExportOpen())
	return seal(e.b), nil
}

// RestoreCheckpoint builds a fresh pipeline over the given registry and
// options and reinstates the checkpointed state. The registry, options and
// key must match the encoding run's — the checkpoint carries only mutable
// state (the stage cache keys on the static configuration, so a mismatch
// cannot happen through it). The restored pipeline continues exactly where
// the original sealed: feed it the next day, SealDay, Finalize.
func RestoreCheckpoint(reg *universe.Registry, opts Options, b []byte) (*Pipeline, error) {
	d, err := checkpointFrame.open(b)
	if err != nil {
		return nil, err
	}
	p, err := NewPipeline(reg, opts)
	if err != nil {
		return nil, err
	}
	lj := p.join

	decStats(d, &p.stats)
	devices, err := decDevices(d)
	if err != nil {
		return nil, err
	}
	labelIdx := decLabelIndex(d)
	leaseIdx := decLeaseIndex(d)
	open := decOpenSessions(d, devices)
	if err := d.end(); err != nil {
		return nil, err
	}

	p.devices = devices
	lj.labeler.RestoreSpans(labelIdx)
	lj.leaseIdx = leaseIdx
	p.stitcher.RestoreOpen(open)
	// The checkpoint was taken at a seal boundary: the next delta starts
	// from the restored cumulative stats, with nothing touched (which
	// newPipeline already set up).
	p.lastSealStats = p.stats
	return p, nil
}

// decSeries reads a per-day or per-hour accumulator, which the accounting
// indexes directly: it must hold exactly n values, or be nil where
// optional (never seen).
func decSeries(d *dec, n int, optional bool) []float32 {
	s := d.f32slice(n)
	if len(s) != n && !(optional && s == nil) {
		d.fail("series of %d values, want %d", len(s), n)
		return nil
	}
	return s
}

func encTime(e *enc, t time.Time)  { e.varint(t.UnixNano()) }
func decTime(d *dec) time.Time     { return time.Unix(0, d.varint()).UTC() }
func encMAC(e *enc, m packet.MAC)  { e.b = append(e.b, m[:]...) }
func decMAC(d *dec) (m packet.MAC) { copy(m[:], d.take(len(m))); return }

// encAddr writes a netip.Addr exactly: a 4-byte form for Is4 addresses, 16
// bytes otherwise (v4-mapped-in-6 stays 16 bytes, preserving the map-key
// distinction the lease and label indexes rely on). Zones are not
// supported — the campus simulation never produces zoned addresses.
func encAddr(e *enc, a netip.Addr) {
	if a.Is4() {
		b := a.As4()
		e.byte(4)
		e.b = append(e.b, b[:]...)
		return
	}
	b := a.As16()
	e.byte(16)
	e.b = append(e.b, b[:]...)
}

func decAddr(d *dec) netip.Addr {
	switch n := d.byte(); n {
	case 4:
		var b [4]byte
		copy(b[:], d.take(4))
		return netip.AddrFrom4(b)
	case 16:
		var b [16]byte
		copy(b[:], d.take(16))
		return netip.AddrFrom16(b)
	default:
		d.fail("bad address tag %d", n)
		return netip.Addr{}
	}
}

// encDevices writes one record per device (devs ascending by pseudonym,
// delta-coded): the accumulators, then the verdict evidence, each field in
// a fixed order.
func encDevices(e *enc, devs []*deviceState) {
	e.uvarint(uint64(len(devs)))
	var prev uint64
	for _, st := range devs {
		e.uvarint(uint64(st.id) - prev)
		prev = uint64(st.id)
		encMAC(e, st.mac)
		e.f32slice(st.daily)
		e.f32slice(st.zoom)
		e.f32slice(st.gameplay)
		for w := range st.hourWeek {
			e.f32slice(st.hourWeek[w])
		}
		for m := range st.groupBytes {
			for g := range st.groupBytes[m] {
				e.varint(st.groupBytes[m][g])
			}
		}
		for k := range st.zoomHourly {
			for h := range st.zoomHourly[k] {
				e.f32(st.zoomHourly[k][h])
			}
		}
		for _, w := range st.sitesFeb {
			e.uvarint(w)
		}
		for _, w := range st.sitesAprMay {
			e.uvarint(w)
		}
		uas := make([]string, 0, len(st.uas))
		for ua := range st.uas {
			uas = append(uas, ua)
		}
		sort.Strings(uas)
		e.uvarint(uint64(len(uas)))
		for _, ua := range uas {
			e.string(ua)
		}
		sigs := make([]string, 0, len(st.sigDomains))
		for s := range st.sigDomains {
			sigs = append(sigs, s)
		}
		sort.Strings(sigs)
		e.uvarint(uint64(len(sigs)))
		for _, s := range sigs {
			e.string(s)
		}
		for m := range st.social {
			for i := range st.social[m] {
				e.varint(int64(st.social[m][i].Duration))
				e.uvarint(uint64(st.social[m][i].Sessions))
			}
		}
		for m := range st.steam {
			e.varint(st.steam[m].Bytes)
			e.uvarint(uint64(st.steam[m].Connections))
		}
		e.varint(st.flows)
		e.uvarint(st.days[0])
		e.uvarint(st.days[1])
		e.varint(st.switches.Total)
		e.varint(st.switches.Nintendo)
		e.varint(st.switches.Gameplay)
		encMidpoint(e, &st.geo)
		encMidpoint(e, &st.geoAblate)
	}
}

func encMidpoint(e *enc, mp *geo.Midpoint) {
	e.f64(mp.X)
	e.f64(mp.Y)
	e.f64(mp.Z)
	e.f64(mp.Weight)
	e.uvarint(uint64(mp.N))
}

func decMidpoint(d *dec) geo.Midpoint {
	return geo.Midpoint{X: d.f64(), Y: d.f64(), Z: d.f64(), Weight: d.f64(), N: int(d.uvarint())}
}

func decDevices(d *dec) (map[anonymize.DeviceID]*deviceState, error) {
	n := d.count("device")
	if d.err != nil {
		return nil, d.err
	}
	devices := make(map[anonymize.DeviceID]*deviceState, n)
	var prev uint64
	for i := 0; i < n; i++ {
		id := prev + d.uvarint()
		if i > 0 && id <= prev {
			return nil, fmt.Errorf("core: decode checkpoint: device IDs not strictly ascending")
		}
		prev = id
		st := &deviceState{id: anonymize.DeviceID(prev)}
		st.mac = decMAC(d)
		st.daily = decSeries(d, campus.NumDays, false)
		st.zoom = decSeries(d, campus.NumDays, false)
		st.gameplay = decSeries(d, campus.NumDays, true)
		for w := range st.hourWeek {
			st.hourWeek[w] = decSeries(d, campus.HoursPerWeek, true)
		}
		for m := range st.groupBytes {
			for g := range st.groupBytes[m] {
				st.groupBytes[m][g] = d.varint()
			}
		}
		for k := range st.zoomHourly {
			for h := range st.zoomHourly[k] {
				st.zoomHourly[k][h] = d.f32()
			}
		}
		for w := range st.sitesFeb {
			st.sitesFeb[w] = d.uvarint()
		}
		for w := range st.sitesAprMay {
			st.sitesAprMay[w] = d.uvarint()
		}
		if nu := d.count("user-agent"); nu > 0 {
			st.uas = make(map[string]struct{}, nu)
			for k := 0; k < nu && d.err == nil; k++ {
				st.uas[d.string()] = struct{}{}
			}
		}
		if ns := d.count("signature-domain"); ns > 0 {
			st.sigDomains = make(map[string]bool, ns)
			for k := 0; k < ns && d.err == nil; k++ {
				st.sigDomains[d.string()] = true
			}
		}
		for m := range st.social {
			for a := range st.social[m] {
				st.social[m][a].Duration = time.Duration(d.varint())
				st.social[m][a].Sessions = int(d.uvarint())
			}
		}
		for m := range st.steam {
			st.steam[m].Bytes = d.varint()
			st.steam[m].Connections = int(d.uvarint())
		}
		st.flows = d.varint()
		st.days = anonymize.DayBitmap{d.uvarint(), d.uvarint()}
		st.switches = appsig.SwitchCounters{Total: d.varint(), Nintendo: d.varint(), Gameplay: d.varint()}
		st.geo = decMidpoint(d)
		st.geoAblate = decMidpoint(d)
		if d.err != nil {
			return nil, d.err
		}
		devices[anonymize.DeviceID(prev)] = st
	}
	return devices, nil
}

// encLabelIndex writes the DNS label index with a domain string table:
// spans reference domains by index, which collapses the payload — a few
// hundred domains label millions of spans.
func encLabelIndex(e *enc, index []dnssim.AddrSpans) {
	domainIdx := make(map[string]int)
	var domains []string
	for _, as := range index {
		for _, s := range as.Spans {
			if _, ok := domainIdx[s.Domain]; !ok {
				domainIdx[s.Domain] = len(domains)
				domains = append(domains, s.Domain)
			}
		}
	}
	e.uvarint(uint64(len(domains)))
	for _, dom := range domains {
		e.string(dom)
	}
	e.uvarint(uint64(len(index)))
	for _, as := range index {
		encAddr(e, as.Addr)
		e.uvarint(uint64(len(as.Spans)))
		for _, s := range as.Spans {
			encTime(e, s.Start)
			e.uvarint(uint64(domainIdx[s.Domain]))
		}
	}
}

func decLabelIndex(d *dec) []dnssim.AddrSpans {
	nd := d.count("domain")
	if d.err != nil {
		return nil
	}
	domains := make([]string, nd)
	for i := range domains {
		domains[i] = d.string()
	}
	na := d.count("address")
	if d.err != nil {
		return nil
	}
	out := make([]dnssim.AddrSpans, 0, na)
	for i := 0; i < na && d.err == nil; i++ {
		as := dnssim.AddrSpans{Addr: decAddr(d)}
		ns := d.count("span")
		if d.err != nil {
			return nil
		}
		as.Spans = make([]dnssim.LabelSpan, 0, ns)
		for j := 0; j < ns && d.err == nil; j++ {
			start := decTime(d)
			di := int(d.uvarint())
			if di < 0 || di >= len(domains) {
				d.fail("domain index %d out of range", di)
				return nil
			}
			as.Spans = append(as.Spans, dnssim.LabelSpan{Start: start, Domain: domains[di]})
		}
		out = append(out, as)
	}
	return out
}

// encLeaseIndex writes the DHCP lease index sorted by address; each
// lease's Addr equals the map key, so only MAC and the validity window are
// stored per span.
func encLeaseIndex(e *enc, idx leaseIndex) {
	addrs := make([]netip.Addr, 0, len(idx))
	for a := range idx {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	e.uvarint(uint64(len(addrs)))
	for _, a := range addrs {
		encAddr(e, a)
		spans := idx[a]
		e.uvarint(uint64(len(spans)))
		for _, l := range spans {
			encMAC(e, l.MAC)
			encTime(e, l.Start)
			encTime(e, l.End)
		}
	}
}

func decLeaseIndex(d *dec) leaseIndex {
	n := d.count("lease address")
	if d.err != nil {
		return nil
	}
	idx := make(leaseIndex, n)
	for i := 0; i < n && d.err == nil; i++ {
		addr := decAddr(d)
		ns := d.count("lease span")
		if d.err != nil {
			return nil
		}
		spans := make([]binding, 0, ns)
		for j := 0; j < ns && d.err == nil; j++ {
			l := dhcp.Lease{Addr: addr}
			l.MAC = decMAC(d)
			l.Start = decTime(d)
			l.End = decTime(d)
			spans = append(spans, binding{Lease: l})
		}
		idx[addr] = spans
	}
	return idx
}

func encOpenSessions(e *enc, sessions []appsig.OpenSession) {
	e.uvarint(uint64(len(sessions)))
	for _, s := range sessions {
		e.uvarint(s.Device)
		e.string(s.Family)
		encTime(e, s.Start)
		encTime(e, s.End)
		e.varint(s.Bytes)
		e.uvarint(uint64(s.Flows))
		if s.Instagram {
			e.byte(1)
		} else {
			e.byte(0)
		}
	}
}

// decOpenSessions reads the open sessions; one whose device is missing
// from the device table fails the decode (its flush would invent a device).
func decOpenSessions(d *dec, devices map[anonymize.DeviceID]*deviceState) []appsig.OpenSession {
	n := d.count("open-session")
	if d.err != nil {
		return nil
	}
	out := make([]appsig.OpenSession, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		s := appsig.OpenSession{
			Device: d.uvarint(),
			Family: d.string(),
			Start:  decTime(d),
			End:    decTime(d),
			Bytes:  d.varint(),
			Flows:  int(d.uvarint()),
		}
		s.Instagram = d.byte() == 1
		if d.err == nil && devices[anonymize.DeviceID(s.Device)] == nil {
			d.fail("open session for device %d absent from the device table", s.Device)
		}
		out = append(out, s)
	}
	return out
}
