package anonymize

import (
	"math/bits"

	"repro/internal/campus"
)

// MinResidentDays is the presence threshold separating residents from
// campus visitors: the study discards devices that appear on the network
// for fewer than 14 days (§3).
const MinResidentDays = 14

// DayBitmap is one device's set of active study days (121 < 128 bits),
// the evidence for the visitor filter and the post-shutdown-user
// definition. The zero bitmap is a device never seen on the network.
type DayBitmap [2]uint64

// Set marks the device active on the given study day; days outside the
// study are ignored.
func (b *DayBitmap) Set(d campus.Day) {
	if d < 0 || int(d) >= campus.NumDays {
		return
	}
	b[d/64] |= 1 << (uint(d) % 64)
}

func (b *DayBitmap) count() int {
	return bits.OnesCount64(b[0]) + bits.OnesCount64(b[1])
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
	if b[word]>>bit != 0 {
		return true
	}
	for w := word + 1; w < len(b); w++ {
		if b[w] != 0 {
			return true
		}
	}
	return false
}

// Resident reports whether the device passes the visitor filter (present at
// least MinResidentDays distinct days).
func (b *DayBitmap) Resident() bool {
	return b.count() >= MinResidentDays
}

// PostShutdownUser reports whether the device is in the paper's analysis
// population: a resident that remained active into the online term (§4:
// "6,522 devices in total remained on campus after the shutdown"). Devices
// whose owners left during the academic break are not post-shutdown users —
// they did not remain on campus.
func (b *DayBitmap) PostShutdownUser() bool {
	onlineDay, _ := campus.DayOf(campus.BreakEnd)
	return b.Resident() && b.anyAtOrAfter(onlineDay)
}
