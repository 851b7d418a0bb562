package core

import (
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"testing"
	"time"

	"repro/internal/anonymize"
	"repro/internal/campus"
	"repro/internal/devclass"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/httplog"
	"repro/internal/packet"
	"repro/internal/universe"
)

// pinnedCheckpointSHA256 is EncodeCheckpoint's digest over pinStream in
// codec version 2, where each device record carries its verdict evidence.
// It guards the v2 layout: derived-state work on the hot path (the per-run
// fact tables) and any change to what a device accumulates show here.
const pinnedCheckpointSHA256 = "6ea37fdb90ca9b1b9272c67bde4495ef2b0977b476a01df40f7ca77e601bd274"

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

// pinnedDatasetSHA256 and pinnedTruthSHA256 are EncodeDataset's digest
// over pinStream's snapshot and EncodeTruth's over pinTruth, computed
// before the three codecs shared one frame and one Stats field list: the
// shared code must not move a byte of dataset.bin or truth.bin.
const (
	pinnedDatasetSHA256 = "400e2576812662b82f9468fea7a249b6457972799efd842a87efe2511ced7dd6"
	pinnedTruthSHA256   = "1987f0f5ba9ad98a0a2479d40a7c8422c0869b56897109afb899a567efa7cbe7"
)

// pinTruth is a fixed ground-truth map with every device type and ID
// deltas from one varint byte to ten.
var pinTruth = map[anonymize.DeviceID]devclass.Type{
	0:         devclass.Unknown,
	1:         devclass.Mobile,
	300:       devclass.LaptopDesktop,
	1 << 40:   devclass.IoT,
	1<<64 - 1: devclass.Mobile,
}

// TestDatasetBytesPinned pins the dataset and truth codecs' output.
func TestDatasetBytesPinned(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(reg, Options{Key: sealTestKey})
	if err != nil {
		t.Fatal(err)
	}
	pinStream(t, reg, p)
	for _, c := range []struct {
		name string
		b    []byte
		want string
	}{
		{"dataset", EncodeDataset(p.Snapshot()), pinnedDatasetSHA256},
		{"truth", EncodeTruth(pinTruth), pinnedTruthSHA256},
	} {
		sum := sha256.Sum256(c.b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s sha256 = %s, want %s (%d bytes)", c.name, got, c.want, len(c.b))
		}
	}
}
