package core

import (
	"slices"
	"sort"

	"repro/internal/anonymize"
	"repro/internal/appsig"
	"repro/internal/campus"
	"repro/internal/devclass"
	"repro/internal/geo"
)

// DeviceData is the finalized, pseudonymous record of one device — the unit
// every experiment operates on.
type DeviceData struct {
	ID anonymize.DeviceID

	// Type is the classifier's verdict; ClassifiedBy names the deciding
	// heuristic ("iot-signature", "user-agent", "oui", "none").
	Type         devclass.Type
	ClassifiedBy string

	// Geo is the §4.2 population label from the February midpoint.
	Geo geo.Classification
	// GeoCDNAblation is the label the midpoint produces with the CDN
	// exclusion inverted (§4.2 ablation: with exclusion disabled,
	// US-located CDN answers drag midpoints toward campus).
	GeoCDNAblation geo.Classification

	// Classification evidence retained for sensitivity analyses:
	// IoTScore is the best Saidi signature match fraction (with the
	// matching platform), UAType the User-Agent majority vote, OUIHint
	// the vendor-registry hint (Unknown for randomized MACs or
	// mixed-portfolio vendors).
	IoTScore    float64
	IoTPlatform string
	UAType      devclass.Type
	OUIHint     devclass.Type

	// Resident: present ≥14 distinct days (the visitor filter).
	// PostShutdown: resident and active on/after the break start — the
	// paper's 6,522-device analysis population.
	Resident     bool
	PostShutdown bool

	// IsSwitch marks Nintendo Switch consoles (§5.3.2's ≥50% rule).
	IsSwitch bool

	// Daily / ZoomDaily / GameplayDaily are bytes per study day
	// (GameplayDaily nil for devices with no Nintendo gameplay traffic).
	Daily         []float32
	ZoomDaily     []float32
	GameplayDaily []float32

	// HourWeek holds per-hour-of-week bytes for the four Figure 3 weeks
	// (nil when the device was idle that week).
	HourWeek [4][]float32

	// SitesFeb / SitesAprMay count distinct labeled domains per period.
	SitesFeb    int
	SitesAprMay int

	// Social[month][app] aggregates stitched session time; app indices
	// follow appsig.SocialMediaApps (facebook, instagram, tiktok).
	Social [campus.NumMonths][3]SocialMonth
	// Steam[month] aggregates Steam bytes and connection counts.
	Steam [campus.NumMonths]SteamMonth

	// GroupBytes[month][group] is the device's monthly byte volume per
	// work/leisure category group (extension analysis).
	GroupBytes [campus.NumMonths][NumGroups]int64
	// ZoomHourly[0][h] / ZoomHourly[1][h] are the device's online-term
	// Zoom bytes per hour of day on weekdays / weekends (§5.1's
	// weekend-afternoon bump, which the paper describes but does not
	// plot).
	ZoomHourly [2][24]float32

	Flows int64
}

// ActiveOn reports whether the device produced traffic on the given day.
func (d *DeviceData) ActiveOn(day campus.Day) bool {
	return int(day) < len(d.Daily) && d.Daily[day] > 0
}

// TotalBytes sums the device's traffic over the window.
func (d *DeviceData) TotalBytes() float64 {
	var sum float64
	for _, v := range d.Daily {
		sum += float64(v)
	}
	return sum
}

// Dataset is the finalized analysis input.
type Dataset struct {
	Devices []*DeviceData
	Stats   Stats

	byID map[anonymize.DeviceID]*DeviceData
}

// Device returns the record for a pseudonym, or nil.
func (ds *Dataset) Device(id anonymize.DeviceID) *DeviceData { return ds.byID[id] }

// PostShutdownUsers returns the paper's analysis population.
func (ds *Dataset) PostShutdownUsers() []*DeviceData {
	var out []*DeviceData
	for _, d := range ds.Devices {
		if d.PostShutdown {
			out = append(out, d)
		}
	}
	return out
}

// Finalize closes the streaming state and produces the Dataset: open
// sessions are flushed, every device is classified (type, population,
// Switch), and presence filters are applied. The pipeline must not be fed
// further after Finalize.
func (p *Pipeline) Finalize() *Dataset {
	if p.finalized {
		panic("core: Finalize called twice")
	}
	p.finalized = true
	p.stitcher.Flush()
	return p.buildDataset()
}

// Snapshot produces a point-in-time Dataset without closing the pipeline:
// in-flight stitcher sessions are folded in as Flush would emit them (but
// stay open), and every slice that Finalize would alias with live
// accumulator state is deep-copied, so the returned Dataset is immutable
// under continued ingest. Classification, presence, geolocation and
// switch-detection reads are side-effect free, so snapshotting never
// perturbs the eventual Finalize. Not safe for concurrent use with
// feeding; call it at a stream boundary (the daemon snapshots at epoch
// seals). It is SnapshotDelta's render path over every device, merged
// onto an empty dataset.
func (p *Pipeline) Snapshot() *Dataset {
	if p.finalized {
		panic("core: Snapshot after Finalize")
	}
	ids := make([]anonymize.DeviceID, 0, len(p.devices))
	for id := range p.devices {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return mergeDelta(&Dataset{}, p.renderTouched(ids), p.stats)
}

// cloneF32 deep-copies a daily/hourly accumulator slice (nil stays nil —
// several fields use nil as "never seen").
func cloneF32(s []float32) []float32 {
	if s == nil {
		return nil
	}
	return append([]float32(nil), s...)
}

// buildDataset renders the finalized state as a Dataset (stitcher
// already flushed): the device records alias the accumulator slices — the
// pipeline is done with them.
func (p *Pipeline) buildDataset() *Dataset {
	ds := &Dataset{
		Stats: p.stats,
		byID:  make(map[anonymize.DeviceID]*DeviceData, len(p.devices)),
	}
	for id, st := range p.devices {
		d := p.renderDevice(id, st, false, nil)
		ds.Devices = append(ds.Devices, d)
		ds.byID[id] = d
	}
	sort.Slice(ds.Devices, func(i, j int) bool { return ds.Devices[i].ID < ds.Devices[j].ID })
	return ds
}

// renderDevice renders one device's accumulated state as an immutable
// record: classification, population and geolocation verdicts are computed
// from the current evidence, and in snapshot mode the mutable accumulator
// slices are deep-copied and the pending open-session overlay (cell, from
// Stitcher.VisitOpen) is folded into Social. All reads are side-effect
// free, so rendering never perturbs later ingest or the eventual Finalize.
func (p *Pipeline) renderDevice(id anonymize.DeviceID, st *deviceState, snapshot bool, cell *[campus.NumMonths][3]SocialMonth) *DeviceData {
	uas := make([]string, 0, len(st.uas))
	for ua := range st.uas {
		uas = append(uas, ua)
	}
	sort.Strings(uas)
	ty, by := p.classifier.Classify(devclass.Evidence{
		MAC:        st.mac,
		UserAgents: uas,
		Domains:    st.sigDomains,
	})
	iotScore, iotPlatform := p.iotDet.Score(st.sigDomains)
	var ouiHint devclass.Type
	if v, ok := devclass.LookupOUI(st.mac); ok {
		ouiHint = v.Hint
	}
	daily, zoom, gameplay, hourWeek := st.daily, st.zoom, st.gameplay, st.hourWeek
	social := st.social
	if snapshot {
		daily = cloneF32(daily)
		zoom = cloneF32(zoom)
		gameplay = cloneF32(gameplay)
		for w := range hourWeek {
			hourWeek[w] = cloneF32(hourWeek[w])
		}
		if cell != nil {
			for m := range social {
				for i := range social[m] {
					social[m][i].Duration += cell[m][i].Duration
					social[m][i].Sessions += cell[m][i].Sessions
				}
			}
		}
	}
	return &DeviceData{
		ID:             id,
		Type:           ty,
		ClassifiedBy:   by,
		Geo:            st.geo.Classify(),
		GeoCDNAblation: st.geoAblate.Classify(),
		IoTScore:       iotScore,
		IoTPlatform:    iotPlatform,
		UAType:         devclass.UAVote(uas),
		OUIHint:        ouiHint,
		Resident:       st.days.Resident(),
		PostShutdown:   st.days.PostShutdownUser(),
		IsSwitch:       st.switches.IsSwitch(),
		Daily:          daily,
		ZoomDaily:      zoom,
		GameplayDaily:  gameplay,
		HourWeek:       hourWeek,
		SitesFeb:       st.sitesFeb.count(),
		SitesAprMay:    st.sitesAprMay.count(),
		Social:         social,
		Steam:          st.steam,
		GroupBytes:     st.groupBytes,
		ZoomHourly:     st.zoomHourly,
		Flows:          st.flows,
	}
}

// renderTouched renders the current state of the given devices (ascending
// IDs; IDs unknown to this pipeline are skipped)
// as immutable snapshot records. The open-session overlay is restricted to
// the requested set: an untouched device's open sessions cannot have
// changed since its last render, so its previous record already reflects
// them.
func (p *Pipeline) renderTouched(ids []anonymize.DeviceID) []*DeviceData {
	want := make(map[anonymize.DeviceID]bool, len(ids))
	for _, id := range ids {
		if p.devices[id] != nil {
			want[id] = true
		}
	}
	pending := make(map[anonymize.DeviceID]*[campus.NumMonths][3]SocialMonth)
	p.stitcher.VisitOpen(func(s appsig.Session) {
		month, idx, ok := sessionCell(s)
		if !ok {
			return
		}
		id := anonymize.DeviceID(s.Device)
		if !want[id] {
			return
		}
		cell := pending[id]
		if cell == nil {
			cell = new([campus.NumMonths][3]SocialMonth)
			pending[id] = cell
		}
		cell[month][idx].Duration += s.Duration()
		cell[month][idx].Sessions++
	})
	out := make([]*DeviceData, 0, len(want))
	for _, id := range ids {
		st := p.devices[id]
		if st == nil {
			continue
		}
		out = append(out, p.renderDevice(id, st, true, pending[id]))
	}
	return out
}

// mergeDelta overlays freshly rendered device records (ascending IDs) onto
// a previous immutable snapshot: untouched devices keep their previous
// records (copy-on-write — no re-render, no re-classification), touched
// ones are replaced, new ones inserted. prev is never mutated.
func mergeDelta(prev *Dataset, fresh []*DeviceData, st Stats) *Dataset {
	ds := &Dataset{
		Stats: st,
		byID:  make(map[anonymize.DeviceID]*DeviceData, len(prev.Devices)+len(fresh)),
	}
	ds.Devices = make([]*DeviceData, 0, len(prev.Devices)+len(fresh))
	i, j := 0, 0
	for i < len(prev.Devices) || j < len(fresh) {
		var d *DeviceData
		switch {
		case i == len(prev.Devices):
			d = fresh[j]
			j++
		case j == len(fresh):
			d = prev.Devices[i]
			i++
		case prev.Devices[i].ID < fresh[j].ID:
			d = prev.Devices[i]
			i++
		case prev.Devices[i].ID > fresh[j].ID:
			d = fresh[j]
			j++
		default: // same device: the fresh render supersedes
			d = fresh[j]
			i++
			j++
		}
		ds.Devices = append(ds.Devices, d)
		ds.byID[d.ID] = d
	}
	return ds
}

// SnapshotDelta produces the same immutable Dataset Snapshot would, in
// O(touched) instead of O(devices): only the devices dp (the partial the
// preceding SealDay returned) marks as touched are re-rendered; every
// other device reuses its record from prev, the snapshot published at the
// previous seal. Correctness rests on renders being pure functions of
// per-device state: a device with no events since its last render
// classifies, geolocates and aggregates identically, so reusing the old
// record is exact (the delta-vs-full parity test pins this). With a nil
// prev it falls back to a full Snapshot.
func (p *Pipeline) SnapshotDelta(prev *Dataset, dp *DayPartial) *Dataset {
	if p.finalized {
		panic("core: SnapshotDelta after Finalize")
	}
	if prev == nil {
		return p.Snapshot()
	}
	return mergeDelta(prev, p.renderTouched(dp.Touched), p.stats)
}
