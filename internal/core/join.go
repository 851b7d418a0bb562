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
type leaseIndex map[netip.Addr][]binding

// binding is one lease span of the index. dev is the device slot of the
// span's MAC, held from the first event the span attributes (derived state:
// never encoded, nil after restore), so a flow reaches its device through
// the lease lookup it makes anyway.
type binding struct {
	dhcp.Lease
	dev *deviceState
}

// observe folds one binding in, coalescing renewals of the same holder.
func (idx leaseIndex) observe(l dhcp.Lease) {
	spans := idx[l.Addr]
	if n := len(spans); n > 0 && spans[n-1].MAC == l.MAC && !l.Start.After(spans[n-1].End) {
		if l.End.After(spans[n-1].End) {
			spans[n-1].End = l.End
		}
		return
	}
	idx[l.Addr] = append(spans, binding{Lease: l})
}

// lookup resolves a client address at a time. Spans arrive in start order
// and, for a healthy DHCP server, never nest (a renewal extends the same
// span; a different device only gets the address after expiry), so once a
// span ends before t no older span can contain it.
// The span is returned in place (nil when none holds t); it stays valid
// until the next observe.
func (idx leaseIndex) lookup(addr netip.Addr, t time.Time) *binding {
	spans := idx[addr]
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Contains(t) {
			return &spans[i]
		}
		if t.After(spans[i].End) {
			break
		}
	}
	return nil
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
// cut, and for an admitted event the device MAC with the lease span that
// attributed it (nil for an EUI-64 address), and for a flow the study
// day, the server's facts and its DNS label (domain 0, the empty domain,
// when unlabeled). It is all the accounting step needs.
type admission struct {
	srv     *serverFacts
	lease   *binding
	mac     packet.MAC
	dom     dnssim.Domain
	labeled bool
	cut     cut
	day     campus.Day
}

// clientMAC resolves a client address at a time into a.mac and a.lease:
// DHCP leases for IPv4, EUI-64 extraction for SLAAC-configured IPv6
// residence addresses (no DHCPv6 logs exist; the interface identifier
// carries the MAC directly).
func clientMAC(j *localJoin, a *admission, addr netip.Addr, t time.Time) bool {
	if a.lease = j.leaseIdx.lookup(addr, t); a.lease != nil {
		a.mac = a.lease.MAC
		return true
	}
	if universe.ResidenceNetV6.Contains(addr) {
		var ok bool
		a.mac, ok = packet.MACFromEUI64(addr)
		return ok
	}
	return false
}

// admitFlow is the one admission rule for flows, in precedence order: the
// tap's excluded networks (unless the tap filter is off), then the capture
// window, then the client MAC, then the server's DNS label. A flow failing
// several cuts lands in the first one's counter. One labeler probe
// resolves the server's facts and its label spans.
func (p *Pipeline) admitFlow(r *flow.Record) (a admission) {
	var s dnssim.Server
	s, a.srv = p.server(r.RespAddr)
	if !p.opts.DisableTapFilter && a.srv.tapExcluded {
		a.cut = cutTap
		return a
	}
	var ok bool
	if a.day, ok = campus.DayOf(r.Start); !ok {
		a.cut = cutWindow
		return a
	}
	if !clientMAC(p.join, &a, r.OrigAddr, r.Start) {
		a.cut = cutNoBinding
		return a
	}
	a.dom, a.labeled = p.join.labeler.Label(s, r.Start)
	return a
}

// admitHTTP is the admission rule for HTTP metadata: the client MAC only.
func admitHTTP(j *localJoin, e *httplog.Entry) (a admission) {
	if !clientMAC(j, &a, e.Client, e.Time) {
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
