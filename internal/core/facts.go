package core

import (
	"net/netip"

	"repro/internal/appsig"
	"repro/internal/dnssim"
	"repro/internal/geo"
)

// The per-run fact tables. Every fact a flow needs about its server, its
// domain or its device is fixed for the run once the key is known, so the
// pipeline resolves each distinct server, domain and device once, from the
// same authoritative calls a per-flow lookup would make, and every later
// flow reads fields. The server and domain tables are slices indexed by
// the labeler's dense numbering (dnssim.Server, dnssim.Domain); the device
// slot is the deviceState itself, reached by MAC.
//
// The tables are derived state: they are never encoded in a checkpoint,
// RestoreCheckpoint starts with them empty (the restored labeler numbers
// servers and domains afresh), and they refill on the first flows after
// restore with the same answers.

// serverFacts is what the pipeline knows about one server address.
type serverFacts struct {
	resolved    bool
	tapExcluded bool // Registry.TapExcluded
	// zoomIP is Matcher.App's answer with no domain: the address lies in
	// a published Zoom prefix.
	zoomIP bool
	// group is the registry category's group (Registry.LookupAddr), or
	// GroupOther for an unregistered address.
	group CategoryGroup
	// geo and geoAblate are the February midpoint points for the two
	// classifiers (Classifier.Point: with and without the CDN exclusion).
	geo, geoAblate geoPoint
}

// geoPoint is one classifier's answer for a server: the point to fold, or
// ok=false when the classifier skips the server.
type geoPoint struct {
	pt geo.Point
	ok bool
}

// domainFacts is what the pipeline knows about one DNS label. Index 0 is the
// empty domain, which is also what an unlabeled flow carries.
type domainFacts struct {
	resolved bool
	name     string
	bit      int  // distinct-site bitmap index, -1 for unregistered domains
	sig      bool // an IoT signature domain
	// app and matched are Matcher.App's answer by domain alone (the zero
	// address lies in no Zoom prefix, so the address fallback stays out).
	app      string
	matched  bool
	nintendo appsig.NintendoClass
}

// server returns the labeler's index of a server address and its facts,
// resolving them on the address's first flow. The pointer is valid until
// the next call.
func (p *Pipeline) server(addr netip.Addr) (dnssim.Server, *serverFacts) {
	s := p.join.labeler.Server(addr)
	if n := int(s) + 1; n > len(p.servers) {
		p.servers = append(p.servers, make([]serverFacts, n-len(p.servers))...)
	}
	f := &p.servers[s]
	if !f.resolved {
		*f = p.resolveServer(addr)
	}
	return s, f
}

func (p *Pipeline) resolveServer(addr netip.Addr) serverFacts {
	_, zoomIP := p.matcher.App("", addr)
	f := serverFacts{
		resolved:    true,
		tapExcluded: p.reg.TapExcluded(addr),
		zoomIP:      zoomIP,
		group:       GroupOther,
	}
	if info, ok := p.reg.LookupAddr(addr); ok {
		f.group = groupOfCategory(info.Service.Category)
	}
	f.geo.pt, f.geo.ok = p.geoCls.Point(addr)
	f.geoAblate.pt, f.geoAblate.ok = p.geoClsAblate.Point(addr)
	return f
}

// domain returns the facts of a labeler domain index, resolving them on
// the domain's first flow. The pointer is valid until the next call.
func (p *Pipeline) domain(d dnssim.Domain) *domainFacts {
	if n := int(d) + 1; n > len(p.domains) {
		p.domains = append(p.domains, make([]domainFacts, n-len(p.domains))...)
	}
	f := &p.domains[d]
	if !f.resolved {
		*f = p.resolveDomain(p.join.labeler.Name(d))
	}
	return f
}

func (p *Pipeline) resolveDomain(name string) domainFacts {
	bit, ok := p.domainBit[name]
	if !ok {
		bit = -1
	}
	app, matched := p.matcher.App(name, netip.Addr{})
	return domainFacts{
		resolved: true,
		name:     name,
		bit:      bit,
		sig:      p.sigDomains[name],
		app:      app,
		matched:  matched,
		nintendo: appsig.ClassifyNintendo(name),
	}
}

// app is Matcher.App(domain, server) from the two tables: the domain's
// signature match, else the server's Zoom-prefix fallback.
func (s *serverFacts) app(d *domainFacts) (string, bool) {
	if d.matched {
		return d.app, true
	}
	if s.zoomIP {
		return appsig.AppZoom, true
	}
	return "", false
}

// fold adds one February flow to a device's midpoint under one
// classifier, if the classifier accepts the server.
func (g *geoPoint) fold(mp *geo.Midpoint, bytes int64) {
	if g.ok {
		mp.AddPoint(g.pt, float64(bytes))
	}
}
