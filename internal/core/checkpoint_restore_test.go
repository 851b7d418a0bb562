package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/httplog"
	"repro/internal/universe"
)

// recordKinds lists the verdict-evidence sections in checkpoint order
// (the open sessions sit between the first two).
var recordKinds = []recordKind{presenceRec, switchRec, geoRec, geoAblateRec}

// smallCheckpointPipeline is a pipeline small enough to fuzz, sealed at a
// checkpoint boundary: pinEdgeCases' devices plus a client that fetches
// Facebook and talks to Nintendo in February, so every section holds a
// record (presence, an open session, Switch counters, both midpoints).
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
// device table lists table and the record section recordKinds[kind] lists
// rec, whose devices need not be in the table or distinct; the other
// sections list the table's devices that hold their evidence. The result
// carries a valid trailer.
func craftCheckpoint(p *Pipeline, table, rec []*deviceState, kind int) []byte {
	e := &enc{}
	e.b = append(e.b, checkpointMagic[:]...)
	for _, v := range []uint64{CheckpointCodecVersion, campus.NumDays, uint64(campus.NumMonths), uint64(NumGroups), campus.HoursPerWeek} {
		e.uvarint(v)
	}
	encStats(e, &p.stats)
	encDevices(e, table)
	encLabelIndex(e, p.join.labeler.ExportSpans())
	encLeaseIndex(e, p.join.leaseIdx)
	for i, k := range recordKinds {
		if i == 1 {
			encOpenSessions(e, p.stitcher.ExportOpen())
		}
		devs := table
		if i == kind {
			devs = rec
		}
		encRecords(e, devs, k)
	}
	return seal(e.b)
}

// seal appends the sha256 trailer RestoreCheckpoint verifies.
func seal(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body[:len(body):len(body)], sum[:]...)
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
	if client == nil || client.days == nil || client.switches == nil || client.geo == nil || client.geoAblate == nil {
		t.Fatal("the Facebook client lacks a record kind")
	}
	return all, client
}

// TestCraftCheckpointMatchesEncoder keeps craftCheckpoint honest: with
// the real device table in every section it reproduces EncodeCheckpoint
// byte for byte, so the rejections below come from the one change each
// test makes.
func TestCraftCheckpointMatchesEncoder(t *testing.T) {
	p, _ := smallCheckpointPipeline(t)
	all, _ := sortedDevices(t, p)
	want, err := p.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	for kind := range recordKinds {
		if got := craftCheckpoint(p, all, all, kind); !bytes.Equal(got, want) {
			t.Fatalf("kind %d: crafted checkpoint differs from EncodeCheckpoint's", kind)
		}
	}
}

// TestRestoreRejectsOrphanRecords: a presence, Switch or midpoint record
// whose device is missing from the device table fails the restore.
func TestRestoreRejectsOrphanRecords(t *testing.T) {
	p, reg := smallCheckpointPipeline(t)
	all, client := sortedDevices(t, p)
	var table []*deviceState
	for _, st := range all {
		if st != client {
			table = append(table, st)
		}
	}
	for kind, k := range recordKinds {
		b := craftCheckpoint(p, table, all, kind)
		_, err := RestoreCheckpoint(reg, Options{Key: sealTestKey}, b)
		if err == nil || !strings.Contains(err.Error(), "absent from the device table") {
			t.Errorf("%s record for a device not in the table (kind %d): err = %v", k.name, kind, err)
		}
	}
}

// TestRestoreRejectsRepeatedRecords: a presence, Switch or midpoint record
// listed twice for one device fails the restore instead of overwriting.
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
	for kind, k := range recordKinds {
		b := craftCheckpoint(p, all, twice, kind)
		_, err := RestoreCheckpoint(reg, Options{Key: sealTestKey}, b)
		if err == nil || !strings.Contains(err.Error(), "not strictly ascending") {
			t.Errorf("%s record repeated (kind %d): err = %v", k.name, kind, err)
		}
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
	f.Add(checkpointMagic[:])
	server, _ := reg.ResolveIP("facebook.com", 1)
	next := flowAt(campus.FirstDay(campus.March).Time().Add(-4*time.Hour), server, 1000)
	opts := Options{Key: sealTestKey}
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := RestoreCheckpoint(reg, opts, seal(body))
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
