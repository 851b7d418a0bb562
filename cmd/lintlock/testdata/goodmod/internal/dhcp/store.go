// Package dhcp is the clean counterpart store: core only calls the
// seq-pinned accessor.
package dhcp

// LeaseStore maps device pseudonyms to lease counts.
type LeaseStore struct{ m map[uint64]uint64 }

// Lookup reads the unpinned head; nothing in this module's route stage
// calls it.
func (s *LeaseStore) Lookup(dev uint64) uint64 { return s.m[dev] }

// LookupAt is the seq-pinned accessor.
func (s *LeaseStore) LookupAt(pin uint64, dev uint64) uint64 { return s.m[dev] }
