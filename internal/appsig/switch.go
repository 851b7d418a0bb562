package appsig

import "slices"

// SwitchDetector identifies Nintendo Switch consoles the way §5.3.2 does:
// a device is classified as a Switch when at least half of its traffic (by
// bytes) goes to the identified Nintendo servers.
type SwitchDetector struct {
	// Threshold is the Nintendo-byte fraction required (default 0.5).
	Threshold float64

	totals map[uint64]*SwitchCounters
}

// SwitchCounters is one device's byte counters: all its traffic, the
// Nintendo share, and the gameplay part of that.
type SwitchCounters struct {
	total    int64
	nintendo int64
	gameplay int64
}

// Add accounts one flow of the given Nintendo class (NotNintendo for an
// unlabeled flow or any other domain).
func (c *SwitchCounters) Add(class NintendoClass, bytes int64) {
	c.total += bytes
	switch class {
	case NintendoGameplayTraffic:
		c.nintendo += bytes
		c.gameplay += bytes
	case NintendoOtherTraffic:
		c.nintendo += bytes
	}
}

// NewSwitchDetector returns a detector with the paper's 50% threshold.
func NewSwitchDetector() *SwitchDetector {
	return &SwitchDetector{Threshold: 0.5, totals: make(map[uint64]*SwitchCounters)}
}

// Device returns the device's counters, creating them on first call. The
// detector sees every flow (it needs the total-bytes denominator), so a
// caller takes a device's counters on its first flow and Adds each flow,
// classified by its resolved domain (ClassifyNintendo).
func (d *SwitchDetector) Device(device uint64) *SwitchCounters {
	c := d.totals[device]
	if c == nil {
		c = &SwitchCounters{}
		d.totals[device] = c
	}
	return c
}

// IsSwitch reports whether the device crosses the Nintendo-traffic
// threshold.
func (d *SwitchDetector) IsSwitch(device uint64) bool {
	c := d.totals[device]
	if c == nil || c.total == 0 {
		return false
	}
	return float64(c.nintendo)/float64(c.total) >= d.Threshold
}

// Switches returns every detected Switch device in ascending pseudonym
// order, so downstream consumers iterate deterministically.
func (d *SwitchDetector) Switches() []uint64 {
	var out []uint64
	for dev := range d.totals {
		if d.IsSwitch(dev) {
			out = append(out, dev)
		}
	}
	slices.Sort(out)
	return out
}

// GameplayBytes returns the device's accumulated gameplay-class bytes.
func (d *SwitchDetector) GameplayBytes(device uint64) int64 {
	if c := d.totals[device]; c != nil {
		return c.gameplay
	}
	return 0
}

// Devices returns the number of devices observed.
func (d *SwitchDetector) Devices() int { return len(d.totals) }

// SwitchRecord is one device's externalized byte counters, the unit of
// checkpoint serialization for the detector.
type SwitchRecord struct {
	Device   uint64
	Total    int64
	Nintendo int64
	Gameplay int64
}

// Export returns every device's counters in ascending device order.
func (d *SwitchDetector) Export() []SwitchRecord {
	devs := make([]uint64, 0, len(d.totals))
	for dev := range d.totals {
		devs = append(devs, dev)
	}
	slices.Sort(devs)
	out := make([]SwitchRecord, 0, len(devs))
	for _, dev := range devs {
		c := d.totals[dev]
		out = append(out, SwitchRecord{Device: dev, Total: c.total, Nintendo: c.nintendo, Gameplay: c.gameplay})
	}
	return out
}

// Restore reinstates counters exported by Export into an empty detector
// (panics otherwise).
func (d *SwitchDetector) Restore(recs []SwitchRecord) {
	if len(d.totals) != 0 {
		panic("appsig: Restore on a SwitchDetector with state")
	}
	for _, r := range recs {
		d.totals[r.Device] = &SwitchCounters{total: r.Total, nintendo: r.Nintendo, gameplay: r.Gameplay}
	}
}
