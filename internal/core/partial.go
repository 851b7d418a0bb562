package core

import (
	"sort"

	"repro/internal/anonymize"
)

// DayPartial is one sealed day: the delta of the run Stats over the day
// and the set of devices whose accumulated state changed during the day.
// Partials are produced by Pipeline.SealDay at UTC day rollovers; the touched set is exactly what SnapshotDelta must
// re-render on top of the previous epoch's snapshot.
type DayPartial struct {
	// Label names the day (the rotated layout's directory name, e.g.
	// "day-042", or the daemon's epoch label).
	Label string
	// Stats is the run-counter delta accumulated during the day.
	Stats Stats
	// Touched lists, in ascending order, every device whose state changed
	// during the day — the exact set a delta snapshot must re-render.
	Touched []anonymize.DeviceID
}

// fields lists the counters in their one order, the codecs' varint
// order.
func (s *Stats) fields() [9]*int64 {
	return [...]*int64{
		&s.FlowsProcessed, &s.FlowsTapDropped, &s.FlowsUnattributed,
		&s.FlowsUnlabeled, &s.FlowsOutOfWindow, &s.DNSEntries,
		&s.HTTPEntries, &s.Leases, &s.BytesProcessed,
	}
}

// Add returns the field-wise sum of two Stats — the merge of two disjoint
// event-range deltas.
func (s Stats) Add(o Stats) Stats {
	of := o.fields()
	for i, p := range s.fields() {
		*p += *of[i]
	}
	return s
}

// Sub returns the field-wise difference — the delta accumulated between
// two cumulative readings.
func (s Stats) Sub(o Stats) Stats {
	of := o.fields()
	for i, p := range s.fields() {
		*p -= *of[i]
	}
	return s
}

// MergeDayPartials reduces day partials into one aggregate covering their
// union: Stats add, touched sets union. No input is mutated. The Label is
// taken from the last partial — the aggregate covers "through that day".
// The error result is always nil; it is kept so existing callers compile.
func MergeDayPartials(parts []*DayPartial) (*DayPartial, error) {
	out := &DayPartial{}
	seen := make(map[anonymize.DeviceID]bool)
	for _, dp := range parts {
		if dp == nil {
			continue
		}
		out.Label = dp.Label
		out.Stats = out.Stats.Add(dp.Stats)
		for _, id := range dp.Touched {
			if !seen[id] {
				seen[id] = true
				out.Touched = append(out.Touched, id)
			}
		}
	}
	sort.Slice(out.Touched, func(i, j int) bool { return out.Touched[i] < out.Touched[j] })
	return out, nil
}

// SealDay closes the day currently being accumulated and returns its
// partial; the pipeline keeps running and the next day starts with an
// empty touched set. Call at a UTC day rollover (between events): the
// returned Stats delta is whatever arrived since the previous seal (or
// since construction, for the first).
func (p *Pipeline) SealDay(label string) *DayPartial {
	if p.finalized {
		panic("core: SealDay after Finalize")
	}
	dp := &DayPartial{
		Label:   label,
		Stats:   p.stats.Sub(p.lastSealStats),
		Touched: append([]anonymize.DeviceID(nil), p.touched...),
	}
	sort.Slice(dp.Touched, func(i, j int) bool { return dp.Touched[i] < dp.Touched[j] })
	p.lastSealStats = p.stats
	p.touched = p.touched[:0]
	p.curSeal++
	return dp
}
