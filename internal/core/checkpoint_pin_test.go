package core

import (
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"testing"
	"time"

	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/httplog"
	"repro/internal/packet"
	"repro/internal/universe"
)

// pinnedCheckpointSHA256 is EncodeCheckpoint's digest over pinStream,
// computed before the per-run fact tables existed. The tables are derived
// state, so the bytes must not move: a presence bitmap, Switch counter or
// midpoint created earlier (or later) than the per-flow calls created
// them shows here.
const pinnedCheckpointSHA256 = "06241fe211f62928909fd2428e0018f03d730662a4e679f5c5932d86e83d36bb"

// pinStream feeds two February days of generated traffic, then hand-made
// edge cases: a device whose only February flow goes to a CDN-excluded
// server (an ablation midpoint, no production one), a device seen only in
// HTTP metadata (no presence, counters or midpoints), and a flow to an
// address with no geolocation, registry entry or DNS label.
func pinStream(t *testing.T, reg *universe.Registry, p *Pipeline) {
	t.Helper()
	runWindow(t, nil, reg, p, 26, 28)
	pinEdgeCases(reg, p)
}

// pinEdgeCases feeds pinStream's hand-made events, on the last day of
// February.
func pinEdgeCases(reg *universe.Registry, p *Pipeline) {
	var cdn netip.Addr
	for _, pi := range reg.Prefixes() {
		if pi.GeoExcluded && pi.Prefix.Addr().Is4() {
			cdn = pi.Prefix.Addr().Next()
			break
		}
	}
	at := campus.FirstDay(campus.March).Time().Add(-6 * time.Hour)
	cdnMAC := packet.MustParseMAC("02:00:5e:00:00:01")
	cdnIP := netip.MustParseAddr("10.250.0.1")
	httpMAC := packet.MustParseMAC("02:00:5e:00:00:02")
	httpIP := netip.MustParseAddr("10.250.0.2")
	for _, l := range []dhcp.Lease{
		{MAC: cdnMAC, Addr: cdnIP, Start: at, End: at.Add(2 * time.Hour)},
		{MAC: httpMAC, Addr: httpIP, Start: at, End: at.Add(2 * time.Hour)},
	} {
		p.Lease(l)
	}
	p.DNS(dnssim.Entry{Time: at, Client: cdnIP, Query: "akamaihd.net", Answer: cdn, TTL: time.Minute})
	r := flowAt(at.Add(time.Minute), cdn, 5000)
	r.OrigAddr = cdnIP
	p.Flow(r)
	r = flowAt(at.Add(2*time.Minute), netip.MustParseAddr("198.51.100.9"), 700)
	r.OrigAddr = cdnIP
	p.Flow(r)
	p.HTTPMeta(httplog.Entry{Time: at.Add(3 * time.Minute), Client: httpIP, Host: "example.org", UserAgent: "Mozilla/5.0 (X11; Linux x86_64)"})
}

// TestCheckpointBytesPinned pins the checkpoint codec's output over
// pinStream, so derived-state work on the hot path cannot change a byte.
func TestCheckpointBytesPinned(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(reg, Options{Key: sealTestKey})
	if err != nil {
		t.Fatal(err)
	}
	pinStream(t, reg, p)
	p.SealDay("pin")
	ckpt, err := p.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(ckpt)
	if got := hex.EncodeToString(sum[:]); got != pinnedCheckpointSHA256 {
		t.Errorf("checkpoint sha256 = %s, want %s (%d bytes)", got, pinnedCheckpointSHA256, len(ckpt))
	}
}
