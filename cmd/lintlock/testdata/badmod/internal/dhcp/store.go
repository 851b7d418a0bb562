// Package dhcp is a miniature epoch store; its unpinned Lookup exists so
// the core caller below can violate the seqpin contract.
package dhcp

// LeaseStore maps device pseudonyms to lease counts.
type LeaseStore struct{ m map[uint64]uint64 }

// Lookup reads the unpinned head — the route stage must not call this.
func (s *LeaseStore) Lookup(dev uint64) uint64 { return s.m[dev] }

// LookupAt is the seq-pinned accessor the route stage is supposed to use.
func (s *LeaseStore) LookupAt(pin uint64, dev uint64) uint64 { return s.m[dev] }

// RetainedBytes is an observability gauge, exempt from pinning.
func (s *LeaseStore) RetainedBytes() uint64 { return uint64(len(s.m)) * 16 }
