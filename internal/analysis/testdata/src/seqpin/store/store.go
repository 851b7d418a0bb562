// Package dhcp is a miniature of the real sequence-tagged LeaseStore: a
// pinned accessor, a sequence-tagged writer, a gauge — and an unpinned
// head view, which is exactly what the route stage must never call.
package dhcp

type LeaseStore struct {
	macs map[string]string
	seqs map[string]uint64
}

// LookupAt resolves addr as of sequence pin (the sanctioned reader).
func (s *LeaseStore) LookupAt(addr string, pin uint64) (string, bool) {
	if s.seqs[addr] > pin {
		return "", false
	}
	mac, ok := s.macs[addr]
	return mac, ok
}

// Lookup is the unpinned head view: it sees broadcasts that arrived after
// the event being processed.
func (s *LeaseStore) Lookup(addr string) (string, bool) {
	mac, ok := s.macs[addr]
	return mac, ok
}

// Observe folds one binding in under sequence seq (single writer).
func (s *LeaseStore) Observe(addr, mac string, seq uint64) {
	s.macs[addr] = mac
	s.seqs[addr] = seq
}

// RetainedBytes is a metadata gauge, exempt from pinning.
func (s *LeaseStore) RetainedBytes() int64 { return int64(len(s.macs)) }

// Addrs iterates the head state — also unpinned.
func (s *LeaseStore) Addrs() []string {
	out := make([]string, 0, len(s.macs))
	for a := range s.macs {
		out = append(out, a)
	}
	return out
}
