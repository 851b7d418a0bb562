package core

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/campus"
	"repro/internal/decodeerr"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/faultline"
	"repro/internal/httplog"
	"repro/internal/logsink"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/universe"
)

// TestShardedStatsParity checks the acceptance invariant of the batched
// dispatcher: for every shard count, the merged Stats must match a single
// Pipeline's field for field — including the cut counters the dispatcher
// maintains itself (FlowsTapDropped, FlowsOutOfWindow, FlowsUnattributed,
// HTTPEntries), which is where the pre-batch dispatcher diverged.
func TestShardedStatsParity(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.05
	from, to := campus.Day(0), campus.Day(campus.NumDays)
	shardCounts := []int{1, 2, 4, 8}
	if testing.Short() {
		// The race job runs -short: keep the 5% scale but narrow the
		// window to the weeks around the campus shutdown, where the
		// device mix changes fastest, and drop to two shard counts.
		from, to = 40, 55
		shardCounts = []int{2, 4}
	}
	key := []byte("parity-test-key-0123456789abcdef")

	gen := func() *trace.Generator {
		g, err := trace.New(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	single, err := NewPipeline(reg, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen().RunDays(single, from, to); err != nil {
		t.Fatal(err)
	}
	want := single.Finalize().Stats
	if want.FlowsProcessed == 0 || want.HTTPEntries == 0 || want.Leases == 0 {
		t.Fatalf("degenerate single run: %+v", want)
	}

	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			sp, err := NewShardedPipeline(reg, Options{Key: key}, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := gen().RunDays(sp, from, to); err != nil {
				t.Fatal(err)
			}
			got := sp.Finalize().Stats
			wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
			for i := 0; i < wv.NumField(); i++ {
				if wv.Field(i).Interface() != gv.Field(i).Interface() {
					t.Errorf("Stats.%s: single %v, sharded %v",
						wv.Type().Field(i).Name, wv.Field(i).Interface(), gv.Field(i).Interface())
				}
			}
		})
	}
}

// TestShardedLeaseBeforeFlowOrdering pins the one ordering invariant the
// batch transport must preserve: a lease enqueued before a flow is applied
// before that flow on the flow's shard, even when the pair straddles batch
// flush boundaries. Every pair uses a fresh MAC and address, so each flow
// attributes only if its own lease was applied first.
func TestShardedLeaseBeforeFlowOrdering(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	server, ok := reg.ResolveIP("facebook.com", 1)
	if !ok {
		t.Fatal("no server address")
	}
	// Enough pairs to roll every shard's open batch over several times.
	const pairs = 3 * batchCap
	base := campus.Day(10).Time().Add(6 * time.Hour)
	mkMAC := func(i int) dhcp.Lease {
		mac := testMAC
		mac[4], mac[5] = byte(i>>8), byte(i)
		start := base.Add(time.Duration(i) * 10 * time.Second)
		return dhcp.Lease{MAC: mac, Addr: mkIP(i), Start: start, End: start.Add(time.Hour)}
	}

	for _, mode := range []string{"per-event", "batch"} {
		t.Run(mode, func(t *testing.T) {
			sp, err := NewShardedPipeline(reg, Options{}, 4)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "per-event" {
				for i := 0; i < pairs; i++ {
					lease := mkMAC(i)
					sp.Lease(lease)
					fl := flowAt(lease.Start.Add(time.Second), server, 1000)
					fl.OrigAddr = lease.Addr
					sp.Flow(fl)
				}
			} else {
				var events []trace.Event
				for i := 0; i < pairs; i++ {
					lease := mkMAC(i)
					fl := flowAt(lease.Start.Add(time.Second), server, 1000)
					fl.OrigAddr = lease.Addr
					events = append(events,
						trace.Event{Kind: trace.EventLease, Lease: lease},
						trace.Event{Kind: trace.EventFlow, Flow: fl})
				}
				// Deliver in uneven runs so lease/flow pairs straddle
				// EventBatch call boundaries as well as shard batches.
				for len(events) > 0 {
					n := min(100, len(events))
					sp.EventBatch(events[:n])
					events = events[n:]
				}
				sp.Flush()
			}
			stats := sp.Finalize().Stats
			if stats.FlowsProcessed != pairs || stats.FlowsUnattributed != 0 {
				t.Errorf("processed %d unattributed %d, want %d / 0",
					stats.FlowsProcessed, stats.FlowsUnattributed, pairs)
			}
			if stats.Leases != pairs {
				t.Errorf("leases %d, want %d", stats.Leases, pairs)
			}
		})
	}
}

func mkIP(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})
}

func mkServer(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)})
}

// TestShardedSnapshotAdversarialSchedule drives the lease-update-mid-batch
// schedule the sharded join must survive: every group interleaves a flow
// *between* a lease and the renewal that would retroactively cover it, an
// HTTP entry in the same gap, a mid-stream DNS re-resolution, and a
// rebinding to a second device. A join that resolved a run's flows after
// folding in the whole run's broadcasts would attribute the gap flow (the
// renewal is already indexed), record the gap HTTP user-agent, and label
// the straddling flow with the *later* domain — all three diverging from
// a single pipeline. The test asserts the exact
// single-pipeline counts first (so the schedule provably exercises the
// traps), then full Stats and per-device parity at shards {1,2,4,8} in
// both per-event and batch delivery.
func TestShardedSnapshotAdversarialSchedule(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	// Enough groups to roll every shard's open batch over several times, at
	// a count not aligned with batchCap so pairs straddle flush boundaries.
	const groups = 2*batchCap + 37
	base := campus.Day(10).Time().Add(6 * time.Hour)
	key := []byte("parity-test-key-0123456789abcdef")

	var stream []trace.Event
	push := func(ev trace.Event) { stream = append(stream, ev) }
	for i := 0; i < groups; i++ {
		addr := mkIP(i)
		server := mkServer(i)
		t0 := base.Add(time.Duration(i) * 30 * time.Second)
		macA, macB := testMAC, testMAC
		macA[3], macA[4], macA[5] = 0xaa, byte(i>>8), byte(i)
		macB[3], macB[4], macB[5] = 0xbb, byte(i>>8), byte(i)

		mkFlow := func(at time.Time, bytes int64) trace.Event {
			fl := flowAt(at, server, bytes)
			fl.OrigAddr = addr
			return trace.Event{Kind: trace.EventFlow, Flow: fl}
		}
		// 1. Initial binding and resolution.
		push(trace.Event{Kind: trace.EventLease, Lease: dhcp.Lease{
			MAC: macA, Addr: addr, Start: t0, End: t0.Add(time.Hour)}})
		push(trace.Event{Kind: trace.EventDNS, DNS: dnssim.Entry{
			Time: t0, Query: "facebook.com", Answer: server}})
		// 2. Attributed, labeled flow inside the initial lease.
		push(mkFlow(t0.Add(time.Second), 1000+int64(i)))
		// 3. TRAP (lease): flow after lease A expired, before the renewal
		// is in the stream. Single pipeline: unattributed. The renewal
		// observed below retroactively covers this instant, so an unpinned
		// shard would attribute it.
		push(mkFlow(t0.Add(96*time.Minute), 2000+int64(i)))
		// 4. TRAP (http): user-agent evidence in the same coverage gap —
		// must NOT attach to the device.
		push(trace.Event{Kind: trace.EventHTTP, HTTP: httplog.Entry{
			Time: t0.Add(97 * time.Minute), Client: addr,
			Host: "example.com", UserAgent: "adversarial-ua/1.0"}})
		// 5. Renewal extends the episode to t0+2h.
		push(trace.Event{Kind: trace.EventLease, Lease: dhcp.Lease{
			MAC: macA, Addr: addr, Start: t0.Add(30 * time.Minute), End: t0.Add(2 * time.Hour)}})
		// 6. Same instant as the trap flow, now after the renewal:
		// attributed. Also labeled facebook.com — the re-resolution below
		// is not in the stream yet even though its timestamp precedes this
		// flow's, so an unpinned shard would label it netflix.com.
		push(mkFlow(t0.Add(96*time.Minute), 3000+int64(i)))
		// 7. Mid-stream re-resolution, timestamped before flow 6's Start.
		push(trace.Event{Kind: trace.EventDNS, DNS: dnssim.Entry{
			Time: t0.Add(40 * time.Minute), Query: "netflix.com", Answer: server}})
		// 8. After the re-resolution in the stream: labeled netflix.com.
		push(mkFlow(t0.Add(100*time.Minute), 4000+int64(i)))
		// 9. Rebinding to a second device after expiry, then its flow.
		push(trace.Event{Kind: trace.EventLease, Lease: dhcp.Lease{
			MAC: macB, Addr: addr, Start: t0.Add(3 * time.Hour), End: t0.Add(4 * time.Hour)}})
		push(mkFlow(t0.Add(3*time.Hour+time.Second), 5000+int64(i)))
	}
	replay := func(sink trace.Sink, batched bool) {
		if bs, ok := sink.(trace.BatchSink); ok && batched {
			// Uneven runs so group boundaries straddle EventBatch calls
			// as well as shard batch flushes.
			rest := stream
			for len(rest) > 0 {
				n := min(97, len(rest))
				bs.EventBatch(rest[:n])
				rest = rest[n:]
			}
			bs.Flush()
			return
		}
		for i := range stream {
			stream[i].Deliver(sink)
		}
	}

	single, err := NewPipeline(reg, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	replay(single, false)
	dsSingle := single.Finalize()
	want := dsSingle.Stats

	// The schedule must provably spring every trap on the single pipeline:
	// 5 flows per group, exactly one (the coverage-gap flow) unattributed.
	if want.FlowsProcessed != 4*groups || want.FlowsUnattributed != groups {
		t.Fatalf("single: processed %d unattributed %d, want %d / %d",
			want.FlowsProcessed, want.FlowsUnattributed, 4*groups, groups)
	}
	if want.Leases != 3*groups || want.DNSEntries != 2*groups || want.HTTPEntries != groups {
		t.Fatalf("single: leases %d dns %d http %d, want %d / %d / %d",
			want.Leases, want.DNSEntries, want.HTTPEntries, 3*groups, 2*groups, groups)
	}

	for _, n := range []int{1, 2, 4, 8} {
		for _, mode := range []string{"per-event", "batch"} {
			t.Run(fmt.Sprintf("shards-%d-%s", n, mode), func(t *testing.T) {
				sp, err := NewShardedPipeline(reg, Options{Key: key}, n)
				if err != nil {
					t.Fatal(err)
				}
				replay(sp, mode == "batch")
				ds := sp.Finalize()
				got := ds.Stats
				wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
				for i := 0; i < wv.NumField(); i++ {
					if wv.Field(i).Interface() != gv.Field(i).Interface() {
						t.Errorf("Stats.%s: single %v, sharded %v",
							wv.Type().Field(i).Name, wv.Field(i).Interface(), gv.Field(i).Interface())
					}
				}
				if len(ds.Devices) != len(dsSingle.Devices) {
					t.Fatalf("device counts differ: single %d, sharded %d",
						len(dsSingle.Devices), len(ds.Devices))
				}
				for _, a := range dsSingle.Devices {
					b := ds.Device(a.ID)
					if b == nil {
						t.Fatalf("device %v missing from sharded dataset", a.ID)
					}
					if a.Type != b.Type || a.Flows != b.Flows {
						t.Fatalf("device %v diverges: type %v/%v flows %d/%d",
							a.ID, a.Type, b.Type, a.Flows, b.Flows)
					}
					if len(a.Daily) != len(b.Daily) {
						t.Fatalf("device %v daily lengths diverge: %d vs %d",
							a.ID, len(a.Daily), len(b.Daily))
					}
					for day := range a.Daily {
						if a.Daily[day] != b.Daily[day] {
							t.Fatalf("device %v day %d bytes diverge: %v vs %v",
								a.ID, day, a.Daily[day], b.Daily[day])
						}
					}
					if a.Social != b.Social || a.Steam != b.Steam {
						t.Fatalf("device %v social/steam series diverge", a.ID)
					}
				}
			})
		}
	}
}

// TestFaultParitySharded extends the parity suite to corrupted input: a
// faultline-injected replay under the skip policy must yield field-by-field
// identical Stats at every shard count, and identical per-class drop
// accounting in both the guard and the obs decode-drop counters. The
// corruption injector is deterministic per (seed, file), so every shard
// count sees the same corrupted byte stream and the guard makes the same
// drop decisions — sharding may not change what degradation looks like.
func TestFaultParitySharded(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.05
	from, to := campus.Day(40), campus.Day(55)
	g, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := logsink.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunDays(w, from, to); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	key := []byte("parity-test-key-0123456789abcdef")
	inject := &faultline.Config{Seed: 17, Rate: 0.005}

	type outcome struct {
		stats  Stats
		guard  *faultline.Guard
		drops  [decodeerr.NumClasses]int64
		shards int
	}
	runAt := func(shards int) outcome {
		metrics := obs.NewMetrics()
		guard := faultline.NewGuard(faultline.PolicySkip, 0, nil, metrics)
		var pipe interface {
			trace.Sink
			Finalize() *Dataset
		}
		if shards == 1 {
			pipe, err = NewPipeline(reg, Options{Key: key, Obs: metrics})
		} else {
			pipe, err = NewShardedPipeline(reg, Options{Key: key, Obs: metrics}, shards)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := logsink.ReplayWithOptions(dir, pipe, logsink.ReplayOptions{Guard: guard, Inject: inject}); err != nil {
			t.Fatal(err)
		}
		return outcome{stats: pipe.Finalize().Stats, guard: guard, drops: metrics.DecodeDrops(), shards: shards}
	}

	want := runAt(1)
	if want.guard.DropTotal() == 0 {
		t.Fatal("corrupted replay dropped nothing — injection inert")
	}
	if want.guard.Accepted()+want.guard.DropTotal() != want.guard.Offered() {
		t.Fatalf("accounting broken: %s", want.guard.Summary())
	}
	got := runAt(4)
	wv, gv := reflect.ValueOf(want.stats), reflect.ValueOf(got.stats)
	for i := 0; i < wv.NumField(); i++ {
		if wv.Field(i).Interface() != gv.Field(i).Interface() {
			t.Errorf("Stats.%s: 1-shard %v, 4-shard %v",
				wv.Type().Field(i).Name, wv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}
	if want.guard.Drops() != got.guard.Drops() {
		t.Errorf("guard drop classes diverged: 1-shard %s, 4-shard %s",
			want.guard.Summary(), got.guard.Summary())
	}
	if want.drops != got.drops {
		t.Errorf("obs decode-drop counters diverged: 1-shard %v, 4-shard %v", want.drops, got.drops)
	}
}

// TestShardedCutAccountingParity feeds the two events a client with no
// DHCP binding produces — an HTTP entry and a flow — to a single and a
// sharded pipeline and compares every stage's events, drops and bytes.
// Only the flow is a dhcp_normalize drop: that stage's drops equal
// FlowsUnattributed on every path, so the bench report's stages block
// does not depend on the shard count.
func TestShardedCutAccountingParity(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	server, ok := reg.ResolveIP("facebook.com", 1)
	if !ok {
		t.Fatal("no server address")
	}
	at := campus.Day(10).Time().Add(6 * time.Hour)
	fl := flowAt(at, server, 1000)
	entry := httplog.Entry{Time: at, Client: fl.OrigAddr, Host: "example.com", UserAgent: "ua/1.0"}
	key := []byte("parity-test-key-0123456789abcdef")

	run := func(shards int) obs.Snapshot {
		m := obs.NewMetrics()
		var pipe interface {
			trace.Sink
			Finalize() *Dataset
		}
		if shards == 1 {
			pipe, err = NewPipeline(reg, Options{Key: key, Obs: m})
		} else {
			pipe, err = NewShardedPipeline(reg, Options{Key: key, Obs: m}, shards)
		}
		if err != nil {
			t.Fatal(err)
		}
		pipe.HTTPMeta(entry)
		pipe.Flow(fl)
		if st := pipe.Finalize().Stats; st.FlowsUnattributed != 1 || st.HTTPEntries != 1 {
			t.Fatalf("%d shards: unattributed %d http %d, want 1 / 1", shards, st.FlowsUnattributed, st.HTTPEntries)
		}
		snap := m.Snapshot()
		for i, ss := range snap.Stages {
			// Sampled timings are scheduling noise, not accounting.
			snap.Stages[i] = obs.StageSnapshot{Stage: ss.Stage, Events: ss.Events, Drops: ss.Drops, Bytes: ss.Bytes}
		}
		return snap
	}
	want := run(1)
	if dhcpS := stageByName(t, want, "dhcp_normalize"); dhcpS.Drops != 1 {
		t.Fatalf("single: dhcp_normalize drops %d, want 1", dhcpS.Drops)
	}
	for _, n := range []int{2, 4} {
		if got := run(n); !reflect.DeepEqual(got.Stages, want.Stages) {
			t.Errorf("%d shards: stages %+v, single %+v", n, got.Stages, want.Stages)
		}
	}
}
