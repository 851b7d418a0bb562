// Package core reproduces the bug shape seqpin exists to catch: the route
// stage — the only reader of the shared stores — resolving a join against
// the store head instead of the seq-pinned accessor: plausible data,
// wrong stream position.
package core

import "fixture/internal/dhcp"

type router struct {
	leases *dhcp.LeaseStore
	seq    uint64
}

// admitPinned is the sanctioned path: the lookup as of the event's pin.
func (r *router) admitPinned(addr string, pin uint64) (string, bool) {
	return r.leases.LookupAt(addr, pin)
}

// observe is the dispatcher writer path (sequence-tagged).
func (r *router) observe(addr, mac string) {
	r.seq++
	r.leases.Observe(addr, mac, r.seq)
}

// gauge reads store metadata, not join state.
func (r *router) gauge() int64 {
	return r.leases.RetainedBytes()
}

// admitHead reads the unpinned head — the exactness bug.
func (r *router) admitHead(addr string) (string, bool) {
	return r.leases.Lookup(addr) // want "without a sequence pin"
}

// routedAddrs iterates head state from route code.
func (r *router) routedAddrs() []string {
	return r.leases.Addrs() // want "without a sequence pin"
}
