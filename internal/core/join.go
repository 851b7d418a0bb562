package core

import (
	"net/netip"
	"time"

	"repro/internal/campus"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/universe"
)

// join is the pair of time-aware lookups admission resolves an event
// against: a single Pipeline's private tables (localJoin), or the sharded
// route stage's view of the shared stores pinned to the event's sequence
// number (pinnedJoin, route.go).
type join interface {
	// leaseMAC resolves the device MAC bound to a client address at t.
	leaseMAC(addr netip.Addr, t time.Time) (packet.MAC, bool)
	// label resolves the domain a server address meant at time t.
	label(server netip.Addr, t time.Time) (string, bool)
}

// localJoin is the single-pipeline join: private labeler and lease index,
// mutated in stream order by the same goroutine that resolves flows.
type localJoin struct {
	labeler  *dnssim.Labeler
	leaseIdx leaseIndex
}

func newLocalJoin() *localJoin {
	return &localJoin{labeler: dnssim.NewLabeler(), leaseIdx: make(leaseIndex)}
}

func (j *localJoin) label(server netip.Addr, t time.Time) (string, bool) {
	return j.labeler.Label(server, t)
}

func (j *localJoin) leaseMAC(addr netip.Addr, t time.Time) (packet.MAC, bool) {
	return j.leaseIdx.lookup(addr, t)
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
// server's DNS label. It is all the accounting step needs, so the sharded
// route stage resolves it once and ships it to the shard in the batch
// slot.
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
func clientMAC[J join](j J, addr netip.Addr, t time.Time) (packet.MAC, bool) {
	if mac, ok := j.leaseMAC(addr, t); ok {
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
// several cuts lands in the first one's counter on every ingest path.
func admitFlow[J join](j J, reg *universe.Registry, tapFilter bool, r *flow.Record) (a admission) {
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
	a.label, a.labeled = j.label(r.RespAddr, r.Start)
	return a
}

// admitHTTP is the admission rule for HTTP metadata: the client MAC only.
func admitHTTP[J join](j J, e *httplog.Entry) (a admission) {
	var ok bool
	if a.mac, ok = clientMAC(j, e.Client, e.Time); !ok {
		a.cut = cutNoBinding
	}
	return a
}

// intakeFlow counts one flow into ingest and settles an admission cut's
// drop. It reports whether the flow goes on to accounting. Pipeline.Flow,
// the sharded dispatcher (for cut flows) and the shards (for admitted
// ones) all count through it, so every path agrees counter for counter.
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
