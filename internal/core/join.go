package core

import (
	"net/netip"
	"time"

	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/universe"
)

// localJoin is the one join: the DNS labeler and the DHCP lease index,
// mutated in stream order by the pipeline that resolves flows against
// them.
type localJoin struct {
	labeler  *dnssim.Labeler
	leaseIdx leaseIndex
}

func newLocalJoin() *localJoin {
	return &localJoin{labeler: dnssim.NewLabeler(), leaseIdx: make(leaseIndex)}
}

// leaseIndex is an append-only, time-aware IP→MAC index over lease
// bindings arriving in non-decreasing start order.
type leaseIndex map[netip.Addr][]dhcp.Lease

// observe folds one binding in, coalescing renewals of the same holder.
func (idx leaseIndex) observe(l dhcp.Lease) {
	spans := idx[l.Addr]
	if n := len(spans); n > 0 && spans[n-1].MAC == l.MAC && !l.Start.After(spans[n-1].End) {
		if l.End.After(spans[n-1].End) {
			spans[n-1].End = l.End
		}
		return
	}
	idx[l.Addr] = append(spans, l)
}

// lookup resolves a client address at a time. Spans arrive in start order
// and, for a healthy DHCP server, never nest (a renewal extends the same
// span; a different device only gets the address after expiry), so once a
// span ends before t no older span can contain it.
func (idx leaseIndex) lookup(addr netip.Addr, t time.Time) (packet.MAC, bool) {
	spans := idx[addr]
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Contains(t) {
			return spans[i].MAC, true
		}
		if t.After(spans[i].End) {
			break
		}
	}
	return packet.MAC{}, false
}

// cut names the capture boundary that stops an event before accounting.
type cut uint8

const (
	admitted     cut = iota
	cutTap           // flow to a network the tap excludes
	cutWindow        // flow outside the capture window
	cutNoBinding     // no DHCP binding or EUI-64 MAC for the client
)

// admission is one flow's or HTTP entry's join outcome: whether it is
// cut, and for an admitted event the device MAC, the study day and the
// server's DNS label. It is all the accounting step needs.
type admission struct {
	label   string
	mac     packet.MAC
	labeled bool
	cut     cut
	day     campus.Day
}

// clientMAC resolves a client address at a time: DHCP leases for IPv4,
// EUI-64 extraction for SLAAC-configured IPv6 residence addresses (no
// DHCPv6 logs exist; the interface identifier carries the MAC directly).
func clientMAC(j *localJoin, addr netip.Addr, t time.Time) (packet.MAC, bool) {
	if mac, ok := j.leaseIdx.lookup(addr, t); ok {
		return mac, true
	}
	if universe.ResidenceNetV6.Contains(addr) {
		return packet.MACFromEUI64(addr)
	}
	return packet.MAC{}, false
}

// admitFlow is the one admission rule for flows, in precedence order: the
// tap's excluded networks (unless tapFilter is off), then the capture
// window, then the client MAC, then the server's DNS label. A flow failing
// several cuts lands in the first one's counter.
func admitFlow(j *localJoin, reg *universe.Registry, tapFilter bool, r *flow.Record) (a admission) {
	if tapFilter && reg.TapExcluded(r.RespAddr) {
		a.cut = cutTap
		return a
	}
	var ok bool
	if a.day, ok = campus.DayOf(r.Start); !ok {
		a.cut = cutWindow
		return a
	}
	if a.mac, ok = clientMAC(j, r.OrigAddr, r.Start); !ok {
		a.cut = cutNoBinding
		return a
	}
	a.label, a.labeled = j.labeler.Label(r.RespAddr, r.Start)
	return a
}

// admitHTTP is the admission rule for HTTP metadata: the client MAC only.
func admitHTTP(j *localJoin, e *httplog.Entry) (a admission) {
	var ok bool
	if a.mac, ok = clientMAC(j, e.Client, e.Time); !ok {
		a.cut = cutNoBinding
	}
	return a
}

// intakeFlow counts one flow into ingest and settles an admission cut's
// drop. It reports whether the flow goes on to accounting.
func (s *Stats) intakeFlow(m *obs.Metrics, bytes int64, c cut) bool {
	m.Add(obs.StageIngest, bytes)
	switch c {
	case cutTap:
		s.FlowsTapDropped++
		m.Drop(obs.StageTapFilter)
		return false
	case cutWindow:
		s.FlowsOutOfWindow++
		m.Drop(obs.StageTapFilter)
		return false
	}
	m.Add(obs.StageTapFilter, 0)
	if c == cutNoBinding {
		s.FlowsUnattributed++
		m.Drop(obs.StageDHCPNormalize)
		return false
	}
	return true
}

// intakeHTTP counts one HTTP entry into ingest and reports whether it goes
// on to accounting. An entry with no client MAC is not a stage drop: the
// dhcp_normalize drops count flows only, and equal FlowsUnattributed.
func (s *Stats) intakeHTTP(m *obs.Metrics, c cut) bool {
	s.HTTPEntries++
	m.Add(obs.StageIngest, 0)
	return c == admitted
}
