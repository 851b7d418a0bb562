package anonymize

import (
	"sort"

	"repro/internal/campus"
)

// MinResidentDays is the presence threshold separating residents from
// campus visitors: the study discards devices that appear on the network
// for fewer than 14 days (§3).
const MinResidentDays = 14

// PresenceTracker records which days each device was active, supporting
// the visitor filter and the post-shutdown-user definition.
type PresenceTracker struct {
	days map[DeviceID]*DayBitmap
}

// DayBitmap is one device's set of active study days (121 < 128 bits).
type DayBitmap struct {
	bits [2]uint64
}

// Set marks the device active on the given study day; days outside the
// study are ignored.
func (b *DayBitmap) Set(d campus.Day) {
	if d < 0 || int(d) >= campus.NumDays {
		return
	}
	b.bits[d/64] |= 1 << (uint(d) % 64)
}

func (b *DayBitmap) get(d campus.Day) bool {
	if d < 0 || int(d) >= campus.NumDays {
		return false
	}
	return b.bits[d/64]&(1<<(uint(d)%64)) != 0
}

func (b *DayBitmap) count() int {
	return popcount(b.bits[0]) + popcount(b.bits[1])
}

func (b *DayBitmap) anyAtOrAfter(d campus.Day) bool {
	if d < 0 {
		d = 0
	}
	if int(d) >= campus.NumDays {
		return false
	}
	word := int(d) / 64
	bit := uint(d) % 64
	if b.bits[word]>>bit != 0 {
		return true
	}
	for w := word + 1; w < len(b.bits); w++ {
		if b.bits[w] != 0 {
			return true
		}
	}
	return false
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// NewPresenceTracker returns an empty tracker.
func NewPresenceTracker() *PresenceTracker {
	return &PresenceTracker{days: make(map[DeviceID]*DayBitmap)}
}

// Device returns the device's day bitmap, creating it on first call: from
// then on the device counts as tracked (Devices, Export), active days or
// not. A caller holds the bitmap and Sets each active day on it.
func (p *PresenceTracker) Device(dev DeviceID) *DayBitmap {
	b := p.days[dev]
	if b == nil {
		b = &DayBitmap{}
		p.days[dev] = b
	}
	return b
}

// DaysSeen returns the number of distinct days the device was active.
func (p *PresenceTracker) DaysSeen(dev DeviceID) int {
	if b := p.days[dev]; b != nil {
		return b.count()
	}
	return 0
}

// ActiveOn reports whether the device was active on the given day.
func (p *PresenceTracker) ActiveOn(dev DeviceID, day campus.Day) bool {
	if b := p.days[dev]; b != nil {
		return b.get(day)
	}
	return false
}

// Resident reports whether the device passes the visitor filter (present at
// least MinResidentDays distinct days).
func (p *PresenceTracker) Resident(dev DeviceID) bool {
	return p.DaysSeen(dev) >= MinResidentDays
}

// PostShutdownUser reports whether the device is in the paper's analysis
// population: a resident that remained active into the online term (§4:
// "6,522 devices in total remained on campus after the shutdown"). Devices
// whose owners left during the academic break are not post-shutdown users —
// they did not remain on campus.
func (p *PresenceTracker) PostShutdownUser(dev DeviceID) bool {
	b := p.days[dev]
	if b == nil {
		return false
	}
	onlineDay, _ := campus.DayOf(campus.BreakEnd)
	return b.count() >= MinResidentDays && b.anyAtOrAfter(onlineDay)
}

// Devices returns the number of devices tracked.
func (p *PresenceTracker) Devices() int { return len(p.days) }

// CountResidents returns how many devices pass the visitor filter.
func (p *PresenceTracker) CountResidents() int {
	n := 0
	for _, b := range p.days {
		if b.count() >= MinResidentDays {
			n++
		}
	}
	return n
}

// PresenceRecord is one device's externalized day bitmap (two 64-bit
// words cover the study's 121 days).
type PresenceRecord struct {
	Device DeviceID
	Days   [2]uint64
}

// Export returns every device's bitmap in ascending pseudonym order.
func (p *PresenceTracker) Export() []PresenceRecord {
	devs := make([]DeviceID, 0, len(p.days))
	for dev := range p.days {
		devs = append(devs, dev)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	out := make([]PresenceRecord, 0, len(devs))
	for _, dev := range devs {
		out = append(out, PresenceRecord{Device: dev, Days: p.days[dev].bits})
	}
	return out
}

// Restore reinstates bitmaps exported by Export into an empty tracker
// (panics otherwise).
func (p *PresenceTracker) Restore(recs []PresenceRecord) {
	if len(p.days) != 0 {
		panic("anonymize: Restore on a PresenceTracker with state")
	}
	for _, r := range recs {
		p.days[r.Device] = &DayBitmap{bits: r.Days}
	}
}

// CountPostShutdown returns the size of the post-shutdown population.
func (p *PresenceTracker) CountPostShutdown() int {
	onlineDay, _ := campus.DayOf(campus.BreakEnd)
	n := 0
	for _, b := range p.days {
		if b.count() >= MinResidentDays && b.anyAtOrAfter(onlineDay) {
			n++
		}
	}
	return n
}
