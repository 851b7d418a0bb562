package core

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/campus"
	"repro/internal/devclass"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/httplog"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/trace"
	"repro/internal/universe"
)

// The streams below are hand-built orderings that the join must resolve
// event by event, in stream position: a flow is admitted against exactly
// the leases and resolutions delivered before it, never against ones that
// arrive later with earlier timestamps. Each test pins the literal Stats
// the stream must produce and, sealing at arbitrary stream positions, that
// every copy-on-write SnapshotDelta equals a full Snapshot.

// event is one stream entry, delivered through the trace.Sink methods.
type event func(trace.Sink)

func leaseEv(l dhcp.Lease) event   { return func(s trace.Sink) { s.Lease(l) } }
func dnsEv(e dnssim.Entry) event   { return func(s trace.Sink) { s.DNS(e) } }
func httpEv(e httplog.Entry) event { return func(s trace.Sink) { s.HTTPMeta(e) } }
func flowEv(at time.Time, client, server netip.Addr, bytes int64) event {
	fl := flowAt(at, server, bytes)
	fl.OrigAddr = client
	return func(s trace.Sink) { s.Flow(fl) }
}

func mkIP(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})
}

func mkServer(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)})
}

// feedSealing delivers stream into p, sealing after every `every` events.
// At each seal the delta snapshot over the previous one must equal a full
// Snapshot; at the end the partials must sum to the final Stats and the
// last snapshot must equal Finalize. It returns the finalized Dataset.
func feedSealing(t *testing.T, p *Pipeline, stream []event, every int) *Dataset {
	t.Helper()
	var prev *Dataset
	var sum Stats
	seal := func(n int) {
		dp := p.SealDay(fmt.Sprintf("seal-%d", n))
		sum = sum.Add(dp.Stats)
		prev = p.SnapshotDelta(prev, dp)
		mustEqualDatasets(t, fmt.Sprintf("delta vs full snapshot after event %d", n), p.Snapshot(), prev)
	}
	for i, ev := range stream {
		ev(p)
		if (i+1)%every == 0 {
			seal(i + 1)
		}
	}
	seal(len(stream))
	ds := p.Finalize()
	if sum != ds.Stats {
		t.Errorf("sealed partials sum to %+v, final Stats %+v", sum, ds.Stats)
	}
	mustEqualDatasets(t, "last snapshot vs finalize", ds, prev)
	return ds
}

// TestAdversarialSchedule drives the orderings a join must get right per
// stream position. Every group interleaves a flow between a lease and the
// renewal that would retroactively cover it, an HTTP entry in the same
// coverage gap, a mid-stream DNS re-resolution timestamped before a flow
// already delivered, a rebinding of the address to a second device, and a
// DNS look-ahead pair: a flow to a server resolved only later in the
// stream (within LookAhead of the flow) is unlabeled before that
// resolution arrives and labeled after.
func TestAdversarialSchedule(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	const groups = 37
	const gapUA = "Mozilla/5.0 (iPhone; CPU iPhone OS 13_3 like Mac OS X)"
	base := campus.Day(10).Time().Add(6 * time.Hour)
	key := []byte("parity-test-key-0123456789abcdef")

	var stream []event
	macsA := make([]packet.MAC, groups)
	for i := 0; i < groups; i++ {
		addr, server := mkIP(i), mkServer(i)
		late := netip.AddrFrom4([4]byte{198, 19, byte(i >> 8), byte(i)})
		t0 := base.Add(time.Duration(i) * 30 * time.Second)
		macA, macB := testMAC, testMAC
		macA[3], macA[4], macA[5] = 0xaa, byte(i>>8), byte(i)
		macB[3], macB[4], macB[5] = 0xbb, byte(i>>8), byte(i)
		macsA[i] = macA

		stream = append(stream,
			// Initial binding and resolution, then an attributed,
			// labeled flow inside the lease.
			leaseEv(dhcp.Lease{MAC: macA, Addr: addr, Start: t0, End: t0.Add(time.Hour)}),
			dnsEv(dnssim.Entry{Time: t0, Query: "facebook.com", Answer: server}),
			flowEv(t0.Add(time.Second), addr, server, 1000+int64(i)),
			// Lease gap: the first lease has expired and the renewal
			// that covers this instant is not in the stream yet, so the
			// flow is unattributed and the user-agent attaches nowhere.
			flowEv(t0.Add(96*time.Minute), addr, server, 2000+int64(i)),
			httpEv(httplog.Entry{Time: t0.Add(97 * time.Minute), Client: addr, Host: "example.com", UserAgent: gapUA}),
			// The renewal extends the binding to t0+2h; the same instant
			// is now attributed, and still labeled facebook.com: the
			// re-resolution below is not in the stream yet even though
			// its timestamp precedes this flow's.
			leaseEv(dhcp.Lease{MAC: macA, Addr: addr, Start: t0.Add(30 * time.Minute), End: t0.Add(2 * time.Hour)}),
			flowEv(t0.Add(96*time.Minute), addr, server, 3000+int64(i)),
			dnsEv(dnssim.Entry{Time: t0.Add(40 * time.Minute), Query: "netflix.com", Answer: server}),
			flowEv(t0.Add(100*time.Minute), addr, server, 4000+int64(i)),
			// Rebinding to a second device after expiry, then its flow.
			leaseEv(dhcp.Lease{MAC: macB, Addr: addr, Start: t0.Add(3 * time.Hour), End: t0.Add(4 * time.Hour)}),
			flowEv(t0.Add(3*time.Hour+time.Second), addr, server, 5000+int64(i)),
			// Look-ahead pair: unlabeled, then the resolution, then
			// labeled.
			flowEv(t0.Add(2*time.Second), addr, late, 6000+int64(i)),
			dnsEv(dnssim.Entry{Time: t0.Add(30 * time.Minute), Query: "zoom.us", Answer: late}),
			flowEv(t0.Add(2*time.Second), addr, late, 6000+int64(i)),
		)
	}

	p, err := NewPipeline(reg, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	// 13 does not divide the 14-event group, so seals land at every
	// position within a group.
	ds := feedSealing(t, p, stream, 13)

	// Per group: six attributed flows, the gap flow unattributed, the
	// first look-ahead flow unlabeled. Bytes are resp + resp/20 per
	// attributed flow (flowAt), summed over the 37 groups.
	want := Stats{
		FlowsProcessed:    6 * groups,
		FlowsUnattributed: groups,
		FlowsUnlabeled:    groups,
		DNSEntries:        3 * groups,
		HTTPEntries:       groups,
		Leases:            3 * groups,
		BytesProcessed:    975348,
	}
	if ds.Stats != want {
		t.Fatalf("Stats\n got  %+v\n want %+v", ds.Stats, want)
	}
	if len(ds.Devices) != 2*groups {
		t.Fatalf("%d devices, want %d", len(ds.Devices), 2*groups)
	}
	day := campus.Day(10)
	tb := func(b int64) float32 { return float32(b + b/20) }
	for i := 0; i < groups; i++ {
		b := int64(i)
		a := ds.Device(p.DeviceID(macsA[i]))
		if a == nil {
			t.Fatalf("group %d: first device missing", i)
		}
		if got, want := a.Daily[day], tb(1000+b)+tb(3000+b)+tb(4000+b)+2*tb(6000+b); got != want {
			t.Errorf("group %d: first device day bytes %v, want %v", i, got, want)
		}
		// Both facebook.com flows are separate sessions; a flow labeled
		// with the later resolution would leave one.
		if got := a.Social[campus.February][0].Sessions; got != 2 {
			t.Errorf("group %d: %d facebook sessions, want 2", i, got)
		}
		if a.UAType != devclass.UAVote(nil) {
			t.Errorf("group %d: gap user-agent attached (UA vote %v)", i, a.UAType)
		}
	}
}

// TestLeaseBeforeFlowOrdering feeds lease/flow pairs, each on a fresh MAC
// and address: every flow attributes only if its own lease, delivered just
// before it, was applied first.
func TestLeaseBeforeFlowOrdering(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	server, ok := reg.ResolveIP("facebook.com", 1)
	if !ok {
		t.Fatal("no server address")
	}
	const pairs = 100
	base := campus.Day(10).Time().Add(6 * time.Hour)
	var stream []event
	for i := 0; i < pairs; i++ {
		mac := testMAC
		mac[4], mac[5] = byte(i>>8), byte(i)
		start := base.Add(time.Duration(i) * 10 * time.Second)
		stream = append(stream,
			leaseEv(dhcp.Lease{MAC: mac, Addr: mkIP(i), Start: start, End: start.Add(time.Hour)}),
			flowEv(start.Add(time.Second), mkIP(i), server, 1000))
	}
	p, err := NewPipeline(reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds := feedSealing(t, p, stream, 7)
	// No resolver entries, so every attributed flow is unlabeled.
	want := Stats{FlowsProcessed: pairs, FlowsUnlabeled: pairs, Leases: pairs, BytesProcessed: pairs * 1050}
	if ds.Stats != want {
		t.Fatalf("Stats\n got  %+v\n want %+v", ds.Stats, want)
	}
	if len(ds.Devices) != pairs {
		t.Errorf("%d devices, want %d", len(ds.Devices), pairs)
	}
}

// TestNoLeaseCutAccounting feeds the two events a client with no DHCP
// binding produces — an HTTP entry and a flow. Both are counted in, and
// only the flow is a dhcp_normalize drop: that stage's drops equal
// FlowsUnattributed, and no device is created.
func TestNoLeaseCutAccounting(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	server, ok := reg.ResolveIP("facebook.com", 1)
	if !ok {
		t.Fatal("no server address")
	}
	at := campus.Day(10).Time().Add(6 * time.Hour)
	stream := []event{
		httpEv(httplog.Entry{Time: at, Client: clientIP, Host: "example.com", UserAgent: "ua/1.0"}),
		flowEv(at, clientIP, server, 1000),
	}
	m := obs.NewMetrics()
	p, err := NewPipeline(reg, Options{Obs: m})
	if err != nil {
		t.Fatal(err)
	}
	ds := feedSealing(t, p, stream, 1)
	if want := (Stats{FlowsUnattributed: 1, HTTPEntries: 1}); ds.Stats != want {
		t.Fatalf("Stats\n got  %+v\n want %+v", ds.Stats, want)
	}
	if len(ds.Devices) != 0 {
		t.Errorf("%d devices, want none", len(ds.Devices))
	}
	// Every stage the two events reach, and no other: timings aside, the
	// snapshot holds exactly these rows.
	want := []obs.StageSnapshot{
		{Stage: "ingest", Events: 2, Bytes: 1050},
		{Stage: "tap_filter", Events: 1},
		{Stage: "dhcp_normalize", Drops: 1},
	}
	got := m.Snapshot().Stages
	for i, ss := range got {
		got[i] = obs.StageSnapshot{Stage: ss.Stage, Events: ss.Events, Drops: ss.Drops, Bytes: ss.Bytes}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stages\n got  %+v\n want %+v", got, want)
	}
}
