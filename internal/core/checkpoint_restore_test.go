package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/anonymize"
	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/httplog"
	"repro/internal/universe"
)

// smallCheckpointPipeline is a pipeline small enough to fuzz, sealed at a
// checkpoint boundary: pinEdgeCases' devices plus a client that fetches
// Facebook and talks to Nintendo in February, so it holds every kind of
// verdict evidence (presence, Switch counters, both midpoints) and an open
// session.
func smallCheckpointPipeline(tb testing.TB) (*Pipeline, *universe.Registry) {
	tb.Helper()
	reg, err := universe.New()
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewPipeline(reg, Options{Key: sealTestKey})
	if err != nil {
		tb.Fatal(err)
	}
	pinEdgeCases(reg, p)
	at := campus.FirstDay(campus.March).Time().Add(-5 * time.Hour)
	p.Lease(dhcp.Lease{MAC: testMAC, Addr: clientIP, Start: at, End: at.Add(2 * time.Hour)})
	for i, domain := range []string{"facebook.com", "nex.nintendo.net"} {
		server, ok := reg.ResolveIP(domain, 1)
		if !ok {
			tb.Fatalf("%s not in the registry", domain)
		}
		t := at.Add(time.Duration(i+1) * time.Minute)
		p.DNS(dnssim.Entry{Time: t, Client: clientIP, Query: domain, Answer: server, TTL: time.Hour})
		p.Flow(flowAt(t.Add(time.Second), server, 4000))
	}
	p.HTTPMeta(httplog.Entry{Time: at.Add(5 * time.Minute), Client: clientIP, Host: "example.org", UserAgent: "Mozilla/5.0 (iPhone)"})
	p.SealDay("small")
	return p, reg
}

// craftCheckpoint encodes p as EncodeCheckpoint does, except that the
// device table lists table, whose devices need not be p's or distinct.
// The result carries a valid trailer.
func craftCheckpoint(p *Pipeline, table []*deviceState) []byte {
	e := checkpointFrame.header(0)
	encStats(e, &p.stats)
	encDevices(e, table)
	encLabelIndex(e, p.join.labeler.ExportSpans())
	encLeaseIndex(e, p.join.leaseIdx)
	encOpenSessions(e, p.stitcher.ExportOpen())
	return seal(e.b)
}

// sortedDevices returns p's devices ascending by pseudonym, and the
// Facebook client's.
func sortedDevices(t *testing.T, p *Pipeline) (all []*deviceState, client *deviceState) {
	t.Helper()
	for _, st := range p.devices {
		all = append(all, st)
	}
	slices.SortFunc(all, func(a, b *deviceState) int { return cmp.Compare(a.id, b.id) })
	client = p.byMAC[testMAC]
	if client == nil || client.days == (anonymize.DayBitmap{}) || client.switches.Total == 0 || client.geo.N == 0 || client.geoAblate.N == 0 {
		t.Fatal("the Facebook client lacks verdict evidence")
	}
	return all, client
}

// TestCraftCheckpointMatchesEncoder keeps craftCheckpoint honest: with
// the real device table it reproduces EncodeCheckpoint byte for byte, so
// the rejections below come from the one change each test makes.
func TestCraftCheckpointMatchesEncoder(t *testing.T) {
	p, _ := smallCheckpointPipeline(t)
	all, _ := sortedDevices(t, p)
	want, err := p.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got := craftCheckpoint(p, all); !bytes.Equal(got, want) {
		t.Fatal("crafted checkpoint differs from EncodeCheckpoint's")
	}
}

// TestRestoreRejectsOrphanRecords: an open-session record whose device is
// missing from the device table fails the restore; its flush would
// otherwise invent a device with no flows. (The verdict evidence sits in
// the device records, so it cannot be orphaned.)
func TestRestoreRejectsOrphanRecords(t *testing.T) {
	p, reg := smallCheckpointPipeline(t)
	all, client := sortedDevices(t, p)
	open := p.stitcher.ExportOpen()
	if len(open) != 1 || open[0].Device != uint64(client.id) {
		t.Fatalf("open sessions %+v, want the client's one", open)
	}
	var table []*deviceState
	for _, st := range all {
		if st != client {
			table = append(table, st)
		}
	}
	_, err := RestoreCheckpoint(reg, Options{Key: sealTestKey}, craftCheckpoint(p, table))
	if err == nil || !strings.Contains(err.Error(), "absent from the device table") {
		t.Errorf("open session for a device not in the table: err = %v", err)
	}
}

// TestRestoreRejectsRepeatedRecords: a device record listed twice in the
// device table fails the restore instead of overwriting the first.
func TestRestoreRejectsRepeatedRecords(t *testing.T) {
	p, reg := smallCheckpointPipeline(t)
	all, client := sortedDevices(t, p)
	var twice []*deviceState
	for _, st := range all {
		twice = append(twice, st)
		if st == client {
			twice = append(twice, st)
		}
	}
	_, err := RestoreCheckpoint(reg, Options{Key: sealTestKey}, craftCheckpoint(p, twice))
	if err == nil || !strings.Contains(err.Error(), "not strictly ascending") {
		t.Errorf("device repeated in the table: err = %v", err)
	}
}

// FuzzRestoreCheckpoint mutates the body of a real checkpoint and
// re-seals the trailer over it, so the decoder's field checks run rather
// than only the checksum. Every input must give either a pipeline or an
// error, and a restored pipeline must encode, take the client's next flow
// and render without a panic.
func FuzzRestoreCheckpoint(f *testing.F) {
	p, reg := smallCheckpointPipeline(f)
	ckpt, err := p.EncodeCheckpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt[:len(ckpt)-sha256.Size])
	f.Add([]byte{})
	f.Add(checkpointFrame.magic[:])
	server, _ := reg.ResolveIP("facebook.com", 1)
	next := flowAt(campus.FirstDay(campus.March).Time().Add(-4*time.Hour), server, 1000)
	opts := Options{Key: sealTestKey}
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := RestoreCheckpoint(reg, opts, seal(slices.Clip(body)))
		if (r == nil) == (err == nil) {
			t.Fatalf("pipeline %v with error %v: want exactly one", r != nil, err)
		}
		if r == nil {
			return
		}
		if _, err := r.EncodeCheckpoint(); err != nil {
			t.Fatalf("restored pipeline does not re-encode: %v", err)
		}
		r.Flow(next)
		r.Snapshot()
	})
}
