package dhcp

import (
	"net/netip"
	"sort"
	"time"

	"repro/internal/packet"
)

// LeaseStore is the shared, sequence-tagged lease table behind the sharded
// pipeline's DHCP join. One writer (the dispatcher) folds the broadcast
// lease stream in through Observe, tagging every mutation with a
// monotonically increasing sequence number; the route stage resolves
// addresses through LookupAt pinned to the sequence number an event
// carries. A pinned lookup therefore sees exactly the bindings a single
// pipeline would have indexed at the same point of the event stream, even
// after the writer has folded in leases that arrive later in the stream.
//
// The table is a plain map: it is never read while it is written. The
// writer and the route stage take turns, and the hand-offs between them
// (the route lanes' job and done channels) order every read after the
// writes it may see. Not safe for concurrent Observe and LookupAt.
//
// Renewals never rewrite a record a pin may still select: a renewal that
// extends a binding appends a fresh record carrying the episode's original
// Start and the extended End. The lookup loop skips records superseded by
// a later renewal of the same episode, so the visible span list is
// record-for-record the coalesced span list a single-pipeline leaseIndex
// holds at that stream position.
type LeaseStore struct {
	recs map[netip.Addr][]leaseRec
	// retained approximates the store's live bytes (records plus
	// per-address overhead) for the obs snapshot-size gauge.
	retained int64
}

// leaseRec is one binding record: a lease episode (or a renewal extension
// of one) as of mutation seq.
type leaseRec struct {
	mac   packet.MAC
	start time.Time
	end   time.Time
	seq   uint64
}

// leaseRecBytes approximates the retained size of one record (two
// time.Time values, a MAC, a sequence number, padding).
const leaseRecBytes = 72

// leaseAddrBytes approximates the fixed overhead of one address (map
// entry and slice header).
const leaseAddrBytes = 96

// NewLeaseStore returns an empty store.
func NewLeaseStore() *LeaseStore {
	return &LeaseStore{recs: make(map[netip.Addr][]leaseRec)}
}

// Observe folds one broadcast lease in under sequence number seq. Sequence
// numbers must be strictly increasing across all Observe calls; leases
// must arrive in non-decreasing start order (the log order).
func (s *LeaseStore) Observe(l Lease, seq uint64) {
	recs, known := s.recs[l.Addr]
	if !known {
		s.retained += leaseAddrBytes
	}
	rec := leaseRec{mac: l.MAC, start: l.Start, end: l.End, seq: seq}
	if n := len(recs); n > 0 {
		last := &recs[n-1]
		if last.mac == l.MAC && !l.Start.After(last.end) {
			// Renewal of the current episode: extend by appending a
			// record that shares the episode Start; a lease fully
			// covered by the episode is a no-op, exactly like the
			// in-place coalescing of a private leaseIndex.
			if !l.End.After(last.end) {
				return
			}
			rec.start = last.start
		}
	}
	s.recs[l.Addr] = append(recs, rec)
	s.retained += leaseRecBytes
}

// LookupAt resolves addr at time t as of mutation sequence pin: only
// records observed with seq ≤ pin are visible. Any number of readers may
// call it at once, but never beside Observe.
func (s *LeaseStore) LookupAt(addr netip.Addr, t time.Time, pin uint64) (packet.MAC, bool) {
	recs := s.recs[addr]
	// Records append in increasing seq, so the visible set is a prefix.
	n := sort.Search(len(recs), func(i int) bool { return recs[i].seq > pin })
	vis := recs[:n]
	// The single-pipeline lookup loop over coalesced spans, with one
	// addition: a record superseded by a later visible renewal of the same
	// episode (same MAC, same episode Start) is skipped, so each episode
	// is considered exactly once, at its widest visible extent.
	for i := len(vis) - 1; i >= 0; i-- {
		r := &vis[i]
		if i+1 < len(vis) {
			nx := &vis[i+1]
			if nx.mac == r.mac && nx.start.Equal(r.start) {
				continue
			}
		}
		if !t.Before(r.start) && t.Before(r.end) {
			return r.mac, true
		}
		if t.After(r.end) {
			break
		}
	}
	return packet.MAC{}, false
}

// RetainedBytes approximates the store's live size for the snapshot-size
// gauge.
func (s *LeaseStore) RetainedBytes() int64 { return s.retained }

// Addrs returns every indexed address in sorted order (test and debugging
// aid; iteration order of the underlying map is randomized).
func (s *LeaseStore) Addrs() []netip.Addr {
	out := make([]netip.Addr, 0, len(s.recs))
	for a := range s.recs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
