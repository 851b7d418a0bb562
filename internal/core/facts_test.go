package core

import (
	"bytes"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"repro/internal/appsig"
	"repro/internal/campus"
	"repro/internal/devclass"
	"repro/internal/dnssim"
	"repro/internal/geo"
	"repro/internal/trace"
	"repro/internal/universe"
)

// factAddrs lists the server addresses the fact tests cover: every
// registry address (v4 and v6), addresses inside the Zoom prefixes that
// the registry never assigned, and seeded random v4 and v6 addresses.
func factAddrs(reg *universe.Registry) []netip.Addr {
	var out []netip.Addr
	for _, d := range reg.Domains() {
		out = append(out, reg.DomainIPs(d)...)
		out = append(out, reg.DomainIPv6s(d)...)
	}
	for _, pi := range reg.Prefixes() {
		if pi.Owner != "zoom" {
			continue
		}
		if pi.Prefix.Addr().Is4() {
			b := pi.Prefix.Addr().As4()
			out = append(out, netip.AddrFrom4([4]byte{b[0], b[1], 0, 99}), netip.AddrFrom4([4]byte{b[0], b[1], 255, 254}))
		} else {
			b := pi.Prefix.Addr().As16()
			b[15] = 0x99
			out = append(out, netip.AddrFrom16(b))
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		var b4 [4]byte
		var b16 [16]byte
		rng.Read(b4[:])
		rng.Read(b16[:])
		out = append(out, netip.AddrFrom4(b4), netip.AddrFrom16(b16))
	}
	return out
}

// TestServerFactsMatchLookups holds the server table to the per-flow
// lookups it replaces: for every covered address its tap exclusion,
// category group and both classifiers' geolocation answers equal
// Registry.TapExcluded, Registry.LookupAddr and geo.DB.Lookup, and the
// Zoom-prefix answer composes with any domain to Matcher.App.
func TestServerFactsMatchLookups(t *testing.T) {
	p, reg := newBarePipeline(t, Options{})
	db := geo.FromRegistry(reg)
	m := appsig.NewMatcher(zoomPrefixes(reg))
	unzoomed := p.domain(0) // the empty domain: no signature match
	var tap, cdn, zoomOnly, v6, unregistered int
	for _, addr := range factAddrs(reg) {
		_, f := p.server(addr)
		if got, want := f.tapExcluded, reg.TapExcluded(addr); got != want {
			t.Errorf("%v: tapExcluded %v, TapExcluded %v", addr, got, want)
		}
		group := GroupOther
		info, registered := reg.LookupAddr(addr)
		if registered {
			group = groupOfCategory(info.Service.Category)
		}
		if f.group != group {
			t.Errorf("%v: group %v, LookupAddr gives %v", addr, f.group, group)
		}
		e, hit := db.Lookup(addr)
		if want := hit && !e.CDNExcluded; f.geo.ok != want || want && f.geo.pt != e.Loc.Point() {
			t.Errorf("%v: geo %+v, Lookup %+v %v", addr, f.geo, e, hit)
		}
		if f.geoAblate.ok != hit || hit && f.geoAblate.pt != e.Loc.Point() {
			t.Errorf("%v: ablation geo %+v, Lookup %+v %v", addr, f.geoAblate, e, hit)
		}
		app, ok := f.app(unzoomed)
		if wantApp, wantOK := m.App("", addr); app != wantApp || ok != wantOK {
			t.Errorf("%v: app %q %v, App %q %v", addr, app, ok, wantApp, wantOK)
		}
		if f.tapExcluded {
			tap++
		}
		if hit && e.CDNExcluded {
			cdn++
		}
		if ok && !registered {
			zoomOnly++
		}
		if addr.Is6() && registered {
			v6++
		}
		if !registered && !hit {
			unregistered++
		}
	}
	if tap == 0 || cdn == 0 || zoomOnly == 0 || v6 == 0 || unregistered == 0 {
		t.Fatalf("coverage: tap %d, CDN-hosted %d, Zoom-only %d, v6 %d, unregistered %d", tap, cdn, zoomOnly, v6, unregistered)
	}
}

// TestDomainFactsMatchLookups holds the domain table to the per-flow
// lookups it replaces: for every registry domain, signature subdomains,
// an unknown domain and the empty one, the bitmap index, the IoT
// signature flag and the Nintendo class equal the registry's sorted
// domain list, the registry's IoT signatures and ClassifyNintendo, and
// the app composes with Zoom and non-Zoom servers to Matcher.App.
func TestDomainFactsMatchLookups(t *testing.T) {
	p, reg := newBarePipeline(t, Options{})
	m := appsig.NewMatcher(zoomPrefixes(reg))
	sorted := reg.Domains()
	sort.Strings(sorted)
	sig := map[string]bool{}
	for _, s := range devclass.SignaturesFromRegistry(reg) {
		for _, d := range s.Domains {
			sig[d] = true
		}
	}
	zoomAddr := zoomPrefixes(reg)[0].Addr().Next()
	if _, ok := m.App("", zoomAddr); !ok {
		t.Fatalf("%v is in no Zoom prefix", zoomAddr)
	}
	plainAddr := netip.MustParseAddr("198.51.100.7")

	names := append([]string{"", "us04web.zoom.us", "www.instagram.com", "scontent.cdninstagram.com",
		"x.nex.nintendo.net", "conntest.nintendowifi.net", "example.org", "zoom.us.example.org"}, sorted...)
	at := campus.StudyStart.Add(time.Hour)
	var matched, bits, sigs, nintendo int
	for i, name := range names {
		// Name the domain through the labeler, as a flow's label would.
		answer := netip.AddrFrom4([4]byte{100, 64, byte(i >> 8), byte(i)})
		p.DNS(dnssim.Entry{Time: at, Client: clientIP, Query: name, Answer: answer})
		s, _ := p.server(answer)
		d, labeled := p.join.labeler.Label(s, at)
		if !labeled {
			t.Fatalf("%q: not labeled", name)
		}
		f := p.domain(d)
		if f.name != name {
			t.Fatalf("domain %d: name %q, want %q", d, f.name, name)
		}
		wantBit := sort.SearchStrings(sorted, name)
		if wantBit == len(sorted) || sorted[wantBit] != name {
			wantBit = -1
		}
		if f.bit != wantBit {
			t.Errorf("%q: bit %d, want %d", name, f.bit, wantBit)
		}
		if f.sig != sig[name] {
			t.Errorf("%q: sig %v, want %v", name, f.sig, sig[name])
		}
		if want := appsig.ClassifyNintendo(name); f.nintendo != want {
			t.Errorf("%q: nintendo %v, ClassifyNintendo %v", name, f.nintendo, want)
		}
		for _, addr := range []netip.Addr{zoomAddr, plainAddr} {
			_, srv := p.server(addr)
			app, ok := srv.app(f)
			if wantApp, wantOK := m.App(name, addr); app != wantApp || ok != wantOK {
				t.Errorf("%q at %v: app %q %v, App %q %v", name, addr, app, ok, wantApp, wantOK)
			}
		}
		if f.matched {
			matched++
		}
		if f.bit >= 0 {
			bits++
		}
		if f.sig {
			sigs++
		}
		if f.nintendo != appsig.NotNintendo {
			nintendo++
		}
	}
	if matched == 0 || bits < len(sorted) || sigs == 0 || nintendo == 0 {
		t.Fatalf("coverage: matched %d, bits %d of %d, sigs %d, nintendo %d", matched, bits, len(sorted), sigs, nintendo)
	}
	if f := p.domain(0); f.name != "" || f.bit != -1 || f.sig || f.matched || f.nintendo != appsig.NotNintendo {
		t.Errorf("empty domain facts %+v", *f)
	}
}

func zoomPrefixes(reg *universe.Registry) []netip.Prefix {
	var out []netip.Prefix
	for _, pi := range reg.Prefixes() {
		if pi.Owner == "zoom" {
			out = append(out, pi.Prefix)
		}
	}
	return out
}

// TestFactTablesRestoreMidStream checkpoints a pipeline whose tables are
// warm, in February so both midpoint classifiers are in play, restores
// it, and feeds both the rest of the stream into March: the restored
// pipeline starts with empty tables, each device holds the live device's
// verdict evidence, and its next
// checkpoint and final Dataset are byte-identical to the uninterrupted
// run's.
func TestFactTablesRestoreMidStream(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Key: sealTestKey}
	live, err := NewPipeline(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := runWindow(t, nil, reg, live, 25, 27)
	live.SealDay("prefix")
	if len(live.servers) == 0 || len(live.domains) == 0 || len(live.byMAC) == 0 {
		t.Fatalf("tables cold after the prefix: %d servers, %d domains, %d devices",
			len(live.servers), len(live.domains), len(live.byMAC))
	}
	ckpt, err := live.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreCheckpoint(reg, opts, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.servers) != 0 || len(restored.domains) != 0 || len(restored.byMAC) != 0 {
		t.Fatal("restore carried derived tables")
	}
	for id, d := range restored.devices {
		l := live.devices[id]
		if d.id != id || l == nil || !sameEvidence(d, l) {
			t.Fatalf("restored device %v: id %v, verdict evidence differs from the live device's", id, d.id)
		}
	}
	again, err := restored.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, ckpt) {
		t.Fatal("restored pipeline re-encodes to different checkpoint bytes")
	}

	runWindow(t, g, reg, &teeSink{sinks: []trace.Sink{live, restored}}, 27, 31)
	live.SealDay("rest")
	restored.SealDay("rest")
	c1, err := live.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := restored.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("post-restore checkpoint not byte-identical to the uninterrupted run's")
	}
	if !bytes.Equal(EncodeDataset(live.Finalize()), EncodeDataset(restored.Finalize())) {
		t.Fatal("post-restore Dataset not byte-identical to the uninterrupted run's")
	}
}

// sameEvidence reports whether two devices hold equal verdict evidence.
func sameEvidence(a, b *deviceState) bool {
	return a.days == b.days && a.switches == b.switches &&
		a.geo == b.geo && a.geoAblate == b.geoAblate
}
