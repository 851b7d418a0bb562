package core

import "goodmod/internal/dhcp"

// resolve goes through the seq-pinned accessor, as the route stage must.
func resolve(s *dhcp.LeaseStore, pin, dev uint64) uint64 {
	return s.LookupAt(pin, dev)
}
