package core

import (
	"crypto/sha256"
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
const CheckpointCodecVersion = 1

var checkpointMagic = [4]byte{'L', 'K', 'C', 'P'}

// EncodeCheckpoint serializes the pipeline's complete mutable state — run
// stats, every device accumulator, the DNS label index, the DHCP lease
// index, presence bitmaps, open stitcher sessions, Switch-detector
// counters, and both geolocation classifiers — so that a pipeline restored
// from the payload and fed the remaining days produces bit-for-bit the
// Dataset a monolithic run would. This is the unit the per-day stats cache
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
// table for the label index, and a sha256 trailer.
func (p *Pipeline) EncodeCheckpoint() ([]byte, error) {
	if p.finalized {
		return nil, fmt.Errorf("core: checkpoint: pipeline already finalized")
	}
	if len(p.touched) != 0 {
		return nil, fmt.Errorf("core: checkpoint: %d devices accumulated since the last seal (checkpoint at a SealDay boundary)", len(p.touched))
	}
	lj := p.join

	e := &enc{b: make([]byte, 0, 1<<20)}
	e.b = append(e.b, checkpointMagic[:]...)
	e.uvarint(CheckpointCodecVersion)
	e.uvarint(campus.NumDays)
	e.uvarint(uint64(campus.NumMonths))
	e.uvarint(uint64(NumGroups))
	e.uvarint(campus.HoursPerWeek)

	encStats(e, &p.stats)
	encDevices(e, p.devices)
	encLabelIndex(e, lj.labeler.ExportSpans())
	encLeaseIndex(e, lj.leaseIdx)
	encPresence(e, p.presence.Export())
	encOpenSessions(e, p.stitcher.ExportOpen())
	encSwitchRecords(e, p.switchDet.Export())
	encMidpoints(e, p.geoCls.Export())
	encMidpoints(e, p.geoClsAblate.Export())

	sum := sha256.Sum256(e.b)
	e.b = append(e.b, sum[:]...)
	return e.b, nil
}

// RestoreCheckpoint builds a fresh pipeline over the given registry and
// options and reinstates the checkpointed state. The registry, options and
// key must match the encoding run's — the checkpoint carries only mutable
// state (the stage cache keys on the static configuration, so a mismatch
// cannot happen through it). The restored pipeline continues exactly where
// the original sealed: feed it the next day, SealDay, Finalize.
func RestoreCheckpoint(reg *universe.Registry, opts Options, b []byte) (*Pipeline, error) {
	if len(b) < len(checkpointMagic)+sha256.Size {
		return nil, fmt.Errorf("core: decode checkpoint: payload too short (%d bytes)", len(b))
	}
	body, trailer := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("core: decode checkpoint: checksum mismatch")
	}
	d := &dec{b: body, scope: "checkpoint"}
	if string(d.take(4)) != string(checkpointMagic[:]) {
		return nil, fmt.Errorf("core: decode checkpoint: bad magic")
	}
	if v := d.uvarint(); v != CheckpointCodecVersion {
		return nil, fmt.Errorf("core: decode checkpoint: codec version %d, want %d", v, CheckpointCodecVersion)
	}
	for _, dim := range []struct {
		name string
		want uint64
	}{
		{"num_days", campus.NumDays},
		{"num_months", uint64(campus.NumMonths)},
		{"num_groups", uint64(NumGroups)},
		{"hours_per_week", campus.HoursPerWeek},
	} {
		if got := d.uvarint(); d.err == nil && got != dim.want {
			return nil, fmt.Errorf("core: decode checkpoint: dimension %s=%d, want %d", dim.name, got, dim.want)
		}
	}

	p, err := NewPipeline(reg, opts)
	if err != nil {
		return nil, err
	}
	lj := p.join

	decStats(d, &p.stats)
	devices, err2 := decDevices(d)
	labelIdx := decLabelIndex(d)
	leaseIdx := decLeaseIndex(d)
	presence := decPresence(d)
	open := decOpenSessions(d)
	switches := decSwitchRecords(d)
	geoRecs := decMidpoints(d)
	geoAblRecs := decMidpoints(d)
	if d.err != nil {
		return nil, d.err
	}
	if err2 != nil {
		return nil, err2
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("core: decode checkpoint: %d trailing bytes", len(body)-d.off)
	}

	p.devices = devices
	lj.labeler.RestoreSpans(labelIdx)
	lj.leaseIdx = leaseIdx
	p.presence.Restore(presence)
	p.stitcher.RestoreOpen(open)
	p.switchDet.Restore(switches)
	p.geoCls.Restore(geoRecs)
	p.geoClsAblate.Restore(geoAblRecs)
	// The checkpoint was taken at a seal boundary: the next delta starts
	// from the restored cumulative stats, with nothing touched (which
	// newPipeline already set up).
	p.lastSealStats = p.stats
	return p, nil
}

func encStats(e *enc, st *Stats) {
	for _, v := range []int64{
		st.FlowsProcessed, st.FlowsTapDropped, st.FlowsUnattributed,
		st.FlowsUnlabeled, st.FlowsOutOfWindow, st.DNSEntries,
		st.HTTPEntries, st.Leases, st.BytesProcessed,
	} {
		e.varint(v)
	}
}

func decStats(d *dec, st *Stats) {
	for _, p := range []*int64{
		&st.FlowsProcessed, &st.FlowsTapDropped, &st.FlowsUnattributed,
		&st.FlowsUnlabeled, &st.FlowsOutOfWindow, &st.DNSEntries,
		&st.HTTPEntries, &st.Leases, &st.BytesProcessed,
	} {
		*p = d.varint()
	}
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

// encDevices writes the per-device accumulators sorted by pseudonym,
// delta-coded, each field in a fixed order.
func encDevices(e *enc, devices map[anonymize.DeviceID]*deviceState) {
	ids := make([]anonymize.DeviceID, 0, len(devices))
	for id := range devices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.uvarint(uint64(len(ids)))
	var prev uint64
	for _, id := range ids {
		st := devices[id]
		e.uvarint(uint64(id) - prev)
		prev = uint64(id)
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
	}
}

func decDevices(d *dec) (map[anonymize.DeviceID]*deviceState, error) {
	n := int(d.uvarint())
	if d.err != nil {
		return nil, d.err
	}
	if n < 0 || n > len(d.b) {
		return nil, fmt.Errorf("core: decode checkpoint: implausible device count %d", n)
	}
	devices := make(map[anonymize.DeviceID]*deviceState, n)
	var prev uint64
	for i := 0; i < n; i++ {
		delta := d.uvarint()
		if i > 0 && delta == 0 {
			return nil, fmt.Errorf("core: decode checkpoint: device IDs not strictly ascending")
		}
		prev += delta
		st := &deviceState{id: anonymize.DeviceID(prev)}
		st.mac = decMAC(d)
		st.daily = d.f32slice(campus.NumDays)
		st.zoom = d.f32slice(campus.NumDays)
		st.gameplay = d.f32slice(campus.NumDays)
		for w := range st.hourWeek {
			st.hourWeek[w] = d.f32slice(campus.HoursPerWeek)
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
		if nu := int(d.uvarint()); nu > 0 {
			st.uas = make(map[string]struct{}, nu)
			for k := 0; k < nu && d.err == nil; k++ {
				st.uas[d.string()] = struct{}{}
			}
		}
		if ns := int(d.uvarint()); ns > 0 {
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
	nd := int(d.uvarint())
	if d.err != nil || nd < 0 || nd > len(d.b) {
		d.fail("implausible domain count %d", nd)
		return nil
	}
	domains := make([]string, nd)
	for i := range domains {
		domains[i] = d.string()
	}
	na := int(d.uvarint())
	if d.err != nil || na < 0 || na > len(d.b) {
		d.fail("implausible address count %d", na)
		return nil
	}
	out := make([]dnssim.AddrSpans, 0, na)
	for i := 0; i < na && d.err == nil; i++ {
		as := dnssim.AddrSpans{Addr: decAddr(d)}
		ns := int(d.uvarint())
		if d.err != nil || ns < 0 || ns > len(d.b) {
			d.fail("implausible span count %d", ns)
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
	n := int(d.uvarint())
	if d.err != nil || n < 0 || n > len(d.b) {
		d.fail("implausible lease address count %d", n)
		return nil
	}
	idx := make(leaseIndex, n)
	for i := 0; i < n && d.err == nil; i++ {
		addr := decAddr(d)
		ns := int(d.uvarint())
		if d.err != nil || ns < 0 || ns > len(d.b) {
			d.fail("implausible lease span count %d", ns)
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

func encPresence(e *enc, recs []anonymize.PresenceRecord) {
	e.uvarint(uint64(len(recs)))
	var prev uint64
	for _, r := range recs {
		e.uvarint(uint64(r.Device) - prev)
		prev = uint64(r.Device)
		e.uvarint(r.Days[0])
		e.uvarint(r.Days[1])
	}
}

func decPresence(d *dec) []anonymize.PresenceRecord {
	n := int(d.uvarint())
	if d.err != nil || n < 0 || n > len(d.b) {
		d.fail("implausible presence count %d", n)
		return nil
	}
	out := make([]anonymize.PresenceRecord, 0, n)
	var prev uint64
	for i := 0; i < n && d.err == nil; i++ {
		prev += d.uvarint()
		out = append(out, anonymize.PresenceRecord{
			Device: anonymize.DeviceID(prev),
			Days:   [2]uint64{d.uvarint(), d.uvarint()},
		})
	}
	return out
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

func decOpenSessions(d *dec) []appsig.OpenSession {
	n := int(d.uvarint())
	if d.err != nil || n < 0 || n > len(d.b) {
		d.fail("implausible open-session count %d", n)
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
		out = append(out, s)
	}
	return out
}

func encSwitchRecords(e *enc, recs []appsig.SwitchRecord) {
	e.uvarint(uint64(len(recs)))
	var prev uint64
	for _, r := range recs {
		e.uvarint(r.Device - prev)
		prev = r.Device
		e.varint(r.Total)
		e.varint(r.Nintendo)
		e.varint(r.Gameplay)
	}
}

func decSwitchRecords(d *dec) []appsig.SwitchRecord {
	n := int(d.uvarint())
	if d.err != nil || n < 0 || n > len(d.b) {
		d.fail("implausible switch-record count %d", n)
		return nil
	}
	out := make([]appsig.SwitchRecord, 0, n)
	var prev uint64
	for i := 0; i < n && d.err == nil; i++ {
		prev += d.uvarint()
		out = append(out, appsig.SwitchRecord{
			Device:   prev,
			Total:    d.varint(),
			Nintendo: d.varint(),
			Gameplay: d.varint(),
		})
	}
	return out
}

func encMidpoints(e *enc, recs []geo.MidpointRecord) {
	e.uvarint(uint64(len(recs)))
	var prev uint64
	for _, r := range recs {
		e.uvarint(r.Device - prev)
		prev = r.Device
		e.f64(r.X)
		e.f64(r.Y)
		e.f64(r.Z)
		e.f64(r.Weight)
		e.uvarint(uint64(r.N))
	}
}

func decMidpoints(d *dec) []geo.MidpointRecord {
	n := int(d.uvarint())
	if d.err != nil || n < 0 || n > len(d.b) {
		d.fail("implausible midpoint count %d", n)
		return nil
	}
	out := make([]geo.MidpointRecord, 0, n)
	var prev uint64
	for i := 0; i < n && d.err == nil; i++ {
		prev += d.uvarint()
		out = append(out, geo.MidpointRecord{
			Device: prev,
			X:      d.f64(),
			Y:      d.f64(),
			Z:      d.f64(),
			Weight: d.f64(),
			N:      int(d.uvarint()),
		})
	}
	return out
}
