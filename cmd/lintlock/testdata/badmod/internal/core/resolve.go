package core

import "badmod/internal/dhcp"

// Resolve reads the shared store through the unpinned head from the
// route stage — the seqpin analyzer must flag it.
func Resolve(s *dhcp.LeaseStore, dev uint64) uint64 {
	return s.Lookup(dev)
}
