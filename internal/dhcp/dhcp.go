// Package dhcp simulates the campus DHCP service and provides the
// IP-to-device normalization step of the measurement pipeline.
//
// Devices on the residential network receive dynamic, temporary IPv4
// addresses; the same address is handed to different devices over the study
// window. The paper's pipeline joins raw flows against contemporaneous DHCP
// logs to convert each dynamic IP back to the stable per-device MAC
// address. Server generates realistic leases (with churn and address
// reuse); the pipeline's lease index (core) performs the time-aware
// reverse lookup.
package dhcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/packet"
)

// DefaultLeaseDuration mirrors a typical enterprise DHCP lease.
const DefaultLeaseDuration = 4 * time.Hour

// Lease is one address binding: the period during which Addr belonged to
// the device MAC. Renewals extend End in place, so one Lease describes one
// continuous binding episode.
type Lease struct {
	MAC   packet.MAC
	Addr  netip.Addr
	Start time.Time
	End   time.Time
}

// Contains reports whether t falls within the lease's validity window
// (inclusive start, exclusive end). The pointer receiver spares the lease
// index's lookup loop a copy of every lease it visits.
func (l *Lease) Contains(t time.Time) bool {
	return !t.Before(l.Start) && t.Before(l.End)
}

// Errors returned by the server.
var (
	ErrPoolExhausted = errors.New("dhcp: address pool exhausted")
	ErrBadPool       = errors.New("dhcp: invalid pool prefix")
)

// Server hands out leases from an IPv4 pool. Address selection is
// deterministic: a cursor sweeps the pool, and addresses free up when their
// lease expires or is released, so the same IP is naturally reused by
// different devices over time — the ambiguity the pipeline's lease join
// exists to resolve.
type Server struct {
	pool      netip.Prefix
	leaseTime time.Duration

	active  map[netip.Addr]*Lease // current holder of each address
	byMAC   map[packet.MAC]*Lease // current lease per device
	history []*Lease              // every binding episode, in grant order
	next    netip.Addr            // allocation cursor
	// lastSweep rate-limits the expiry scan: a full pass over the active
	// table per request would be quadratic under realistic load.
	lastSweep time.Time
}

// NewServer returns a server managing the host addresses of pool. Only IPv4
// pools of /30 or larger are supported; the network and broadcast addresses
// are never assigned.
func NewServer(pool netip.Prefix, leaseTime time.Duration) (*Server, error) {
	if !pool.IsValid() || !pool.Addr().Is4() || pool.Bits() > 30 {
		return nil, fmt.Errorf("%w: %v", ErrBadPool, pool)
	}
	if leaseTime <= 0 {
		leaseTime = DefaultLeaseDuration
	}
	masked := pool.Masked()
	return &Server{
		pool:      masked,
		leaseTime: leaseTime,
		active:    make(map[netip.Addr]*Lease),
		byMAC:     make(map[packet.MAC]*Lease),
		next:      masked.Addr().Next(), // skip network address
	}, nil
}

// PoolSize returns the number of assignable addresses.
func (s *Server) PoolSize() int {
	hostBits := 32 - s.pool.Bits()
	return 1<<hostBits - 2
}

func (s *Server) broadcast() netip.Addr {
	base := s.pool.Addr().As4()
	v := binary.BigEndian.Uint32(base[:])
	v |= 1<<(32-s.pool.Bits()) - 1
	var out [4]byte
	binary.BigEndian.PutUint32(out[:], v)
	return netip.AddrFrom4(out)
}

// expire releases addresses whose lease ended at or before now. The scan
// runs at most once per simulated minute; correctness does not depend on
// it (Request checks each binding's validity itself), only address reuse
// does, and the pool is far larger than a minute's churn.
func (s *Server) expire(now time.Time) {
	if !s.lastSweep.IsZero() && now.Sub(s.lastSweep) < time.Minute {
		return
	}
	s.lastSweep = now
	for addr, l := range s.active {
		if !l.End.After(now) {
			delete(s.active, addr)
			if cur := s.byMAC[l.MAC]; cur == l {
				delete(s.byMAC, l.MAC)
			}
		}
	}
}

// Request handles a DHCP request from mac at time now, renewing the current
// lease when one is still valid or allocating a fresh address otherwise.
// Requests must be issued in non-decreasing time order.
func (s *Server) Request(mac packet.MAC, now time.Time) (Lease, error) {
	s.expire(now)
	if cur, ok := s.byMAC[mac]; ok {
		if cur.End.After(now) {
			cur.End = now.Add(s.leaseTime) // renewal: extend the episode
			return *cur, nil
		}
		// The binding lapsed but the sweep has not collected it yet:
		// retire it now rather than resurrecting an expired episode
		// (which would wrongly attribute the silent gap to this device).
		delete(s.active, cur.Addr)
		delete(s.byMAC, mac)
	}
	addr, err := s.allocate()
	if err != nil {
		// The pool may only look exhausted because the rate-limited sweep
		// has not reclaimed expirations yet: force one and retry.
		s.lastSweep = time.Time{}
		s.expire(now)
		addr, err = s.allocate()
		if err != nil {
			return Lease{}, err
		}
	}
	l := &Lease{MAC: mac, Addr: addr, Start: now, End: now.Add(s.leaseTime)}
	s.active[addr] = l
	s.byMAC[mac] = l
	s.history = append(s.history, l)
	return *l, nil
}

// allocate scans from the cursor for a free address, wrapping once.
func (s *Server) allocate() (netip.Addr, error) {
	bcast := s.broadcast()
	size := s.PoolSize() + 2
	for i := 0; i < size; i++ {
		addr := s.next
		s.next = s.next.Next()
		if !s.pool.Contains(s.next) || s.next == bcast {
			s.next = s.pool.Addr().Next() // wrap past network address
		}
		if _, taken := s.active[addr]; !taken && s.pool.Contains(addr) && addr != bcast && addr != s.pool.Addr() {
			return addr, nil
		}
	}
	return netip.Addr{}, ErrPoolExhausted
}

// Release ends mac's current lease at time now (device left the network).
func (s *Server) Release(mac packet.MAC, now time.Time) {
	if cur, ok := s.byMAC[mac]; ok {
		cur.End = now
		delete(s.active, cur.Addr)
		delete(s.byMAC, mac)
	}
}

// ActiveCount returns the number of live leases as of the last operation.
func (s *Server) ActiveCount() int { return len(s.active) }

// History returns a snapshot of every binding episode granted so far, in
// grant order, with End reflecting renewals and releases.
func (s *Server) History() []Lease {
	out := make([]Lease, len(s.history))
	for i, l := range s.history {
		out[i] = *l
	}
	return out
}
