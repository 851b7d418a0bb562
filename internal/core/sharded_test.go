package core

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/anonymize"
	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/httplog"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/universe"
)

func TestShardedMatchesSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.01
	key := []byte("sharded-equivalence-key-0123456789")

	// Single pipeline.
	g1, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewPipeline(reg, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.RunDays(single, 20, 40); err != nil {
		t.Fatal(err)
	}
	dsSingle := single.Finalize()

	// Sharded pipeline, same key and workload.
	g2, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedPipeline(reg, Options{Key: key}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards() != 4 {
		t.Fatalf("shards = %d", sharded.Shards())
	}
	if err := g2.RunDays(sharded, 20, 40); err != nil {
		t.Fatal(err)
	}
	dsSharded := sharded.Finalize()

	if len(dsSingle.Devices) != len(dsSharded.Devices) {
		t.Fatalf("device counts differ: single %d, sharded %d",
			len(dsSingle.Devices), len(dsSharded.Devices))
	}
	if dsSingle.Stats.FlowsProcessed != dsSharded.Stats.FlowsProcessed {
		t.Errorf("flows differ: %d vs %d", dsSingle.Stats.FlowsProcessed, dsSharded.Stats.FlowsProcessed)
	}
	if dsSingle.Stats.BytesProcessed != dsSharded.Stats.BytesProcessed {
		t.Errorf("bytes differ: %d vs %d", dsSingle.Stats.BytesProcessed, dsSharded.Stats.BytesProcessed)
	}
	if dsSingle.Stats.FlowsUnattributed != dsSharded.Stats.FlowsUnattributed {
		t.Errorf("unattributed differ: %d vs %d",
			dsSingle.Stats.FlowsUnattributed, dsSharded.Stats.FlowsUnattributed)
	}

	// Per-device equivalence: same pseudonyms, types, daily bytes.
	for _, a := range dsSingle.Devices {
		b := dsSharded.Device(a.ID)
		if b == nil {
			t.Fatalf("device %v missing from sharded dataset", a.ID)
		}
		if a.Type != b.Type || a.Geo != b.Geo || a.IsSwitch != b.IsSwitch ||
			a.Resident != b.Resident || a.PostShutdown != b.PostShutdown {
			t.Fatalf("device %v verdicts differ: %+v vs %+v", a.ID, a, b)
		}
		if a.Flows != b.Flows {
			t.Fatalf("device %v flows differ: %d vs %d", a.ID, a.Flows, b.Flows)
		}
		for day := range a.Daily {
			if a.Daily[day] != b.Daily[day] {
				t.Fatalf("device %v day %d bytes differ: %v vs %v",
					a.ID, day, a.Daily[day], b.Daily[day])
			}
		}
		for m := campus.February; m < campus.NumMonths; m++ {
			if a.Social[m] != b.Social[m] {
				t.Fatalf("device %v month %v social differ", a.ID, m)
			}
			if a.Steam[m] != b.Steam[m] {
				t.Fatalf("device %v month %v steam differ", a.ID, m)
			}
		}
	}
}

// TestShardedDeviceIDDuringIngest calls DeviceID for the whole population
// at every day boundary, while the shard workers are still applying the
// day just flushed — the access pattern of cmd/lockdown's ground-truth
// rebuild. Under -race this fails if DeviceID reads shard-owned state.
func TestShardedDeviceIDDuringIngest(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.01
	key := []byte("sharded-deviceid-race-key-0123456")
	gen, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewShardedPipeline(reg, Options{Key: key}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := anonymize.NewPseudonymizer(key)
	if err != nil {
		t.Fatal(err)
	}
	days := 0
	sink := &trace.DayCounter{Sink: sp, OnDay: func() {
		days++
		for _, d := range gen.Devices() {
			if got := sp.DeviceID(d.MAC); got != want.Device(d.MAC) {
				t.Fatalf("day %d: DeviceID(%v) = %v, want %v", days, d.MAC, got, want.Device(d.MAC))
			}
		}
	}}
	if err := gen.RunDays(sink, 20, 24); err != nil {
		t.Fatal(err)
	}
	if days != 4 {
		t.Errorf("saw %d day boundaries, want 4", days)
	}
	if ds := sp.Finalize(); len(ds.Devices) == 0 {
		t.Error("no devices ingested")
	}
}

func TestShardedSingleShardDegenerate(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewShardedPipeline(reg, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Shards() != 1 {
		t.Fatalf("shards = %d", sp.Shards())
	}
	ds := sp.Finalize()
	if len(ds.Devices) != 0 {
		t.Errorf("empty run produced %d devices", len(ds.Devices))
	}
}

func BenchmarkShardedPipelineThroughput(b *testing.B) {
	reg, err := universe.New()
	if err != nil {
		b.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.02
	gen, err := trace.New(cfg, reg)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := NewShardedPipeline(reg, Options{Key: []byte("sharded-bench-key-0123456789abcdef")}, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day := campus.Day(i % campus.NumDays)
		if err := gen.RunDays(sp, day, day+1); err != nil {
			b.Fatal(err)
		}
	}
}

// adversarialStream builds the same trap schedule as
// TestShardedSnapshotAdversarialSchedule (lease coverage gap, gap HTTP
// evidence, mid-stream DNS re-resolution, rebinding) at a configurable
// group count. Expected single-pipeline outcome per group: 4 flows
// processed, 1 unattributed, 3 leases, 2 DNS entries, 1 HTTP entry.
func adversarialStream(groups int) []trace.Event {
	base := campus.Day(10).Time().Add(6 * time.Hour)
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
		push(trace.Event{Kind: trace.EventLease, Lease: dhcp.Lease{
			MAC: macA, Addr: addr, Start: t0, End: t0.Add(time.Hour)}})
		push(trace.Event{Kind: trace.EventDNS, DNS: dnssim.Entry{
			Time: t0, Query: "facebook.com", Answer: server}})
		push(mkFlow(t0.Add(time.Second), 1000+int64(i)))
		push(mkFlow(t0.Add(96*time.Minute), 2000+int64(i))) // gap: unattributed
		push(trace.Event{Kind: trace.EventHTTP, HTTP: httplog.Entry{
			Time: t0.Add(97 * time.Minute), Client: addr,
			Host: "example.com", UserAgent: "adversarial-ua/1.0"}})
		push(trace.Event{Kind: trace.EventLease, Lease: dhcp.Lease{
			MAC: macA, Addr: addr, Start: t0.Add(30 * time.Minute), End: t0.Add(2 * time.Hour)}})
		push(mkFlow(t0.Add(96*time.Minute), 3000+int64(i)))
		push(trace.Event{Kind: trace.EventDNS, DNS: dnssim.Entry{
			Time: t0.Add(40 * time.Minute), Query: "netflix.com", Answer: server}})
		push(mkFlow(t0.Add(100*time.Minute), 4000+int64(i)))
		push(trace.Event{Kind: trace.EventLease, Lease: dhcp.Lease{
			MAC: macB, Addr: addr, Start: t0.Add(3 * time.Hour), End: t0.Add(4 * time.Hour)}})
		push(mkFlow(t0.Add(3*time.Hour+time.Second), 5000+int64(i)))
	}
	return stream
}

// TestQueueDepthBounded is the regression test for the queue-depth gauge
// denominator: while ingest and a concurrent snapshot poller race, every
// sampled per-shard depth must stay within QueueCapacity (events), and
// every sampled ring occupancy within the ring's capacity (batches) —
// the two gauges use different units and each must respect its own bound.
// After Finalize both must read zero/empty.
func TestQueueDepthBounded(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewMetrics()
	const shards = 4
	sp, err := NewShardedPipeline(reg, Options{Obs: metrics}, shards)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sp.QueueCapacity(), (defaultRingCap+2)*batchCap; got != want {
		t.Fatalf("QueueCapacity = %d, want %d", got, want)
	}
	if got := metrics.Snapshot().Counters["queue_capacity"]; got != int64(sp.QueueCapacity()) {
		t.Fatalf("obs queue_capacity = %d, pipeline says %d", got, sp.QueueCapacity())
	}

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	var violations []string
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := metrics.Snapshot()
			queueCap := int(snap.Counters["queue_capacity"])
			if queueCap != sp.QueueCapacity() {
				violations = append(violations, fmt.Sprintf(
					"snapshot queue_capacity %d != %d", queueCap, sp.QueueCapacity()))
				return
			}
			for i, sh := range snap.Shards {
				if sh.QueueDepth < 0 || sh.QueueDepth > queueCap {
					violations = append(violations, fmt.Sprintf(
						"shard %d queue_depth %d outside [0, %d]", i, sh.QueueDepth, queueCap))
					return
				}
				if sh.RingBatches < 0 || (sh.RingCapacity > 0 && sh.RingBatches > sh.RingCapacity) {
					violations = append(violations, fmt.Sprintf(
						"shard %d ring occupancy %d outside [0, %d]", i, sh.RingBatches, sh.RingCapacity))
					return
				}
			}
		}
	}()

	stream := adversarialStream(3 * batchCap)
	rest := stream
	for len(rest) > 0 {
		n := min(256, len(rest))
		sp.EventBatch(rest[:n])
		rest = rest[n:]
	}
	sp.Flush()
	ds := sp.Finalize()
	close(stop)
	pollWG.Wait()
	for _, v := range violations {
		t.Error(v)
	}
	if ds.Stats.FlowsProcessed == 0 {
		t.Fatal("run processed nothing")
	}

	// Settled state: queues drained, rings empty, capacities intact.
	rows := metrics.Snapshot().Shards
	if len(rows) != shards {
		t.Fatalf("snapshot has %d shard rows, want %d", len(rows), shards)
	}
	for i, sh := range rows {
		if sh.QueueDepth != 0 {
			t.Errorf("shard %d queue depth %d after Finalize", i, sh.QueueDepth)
		}
		if sh.RingBatches != 0 {
			t.Errorf("shard %d ring holds %d batches after Finalize", i, sh.RingBatches)
		}
		if sh.RingCapacity != defaultRingCap {
			t.Errorf("shard %d ring capacity %d, want %d", i, sh.RingCapacity, defaultRingCap)
		}
	}
}

// TestDispatchSettlesOncePerBatch audits the settle-once invariant:
// dispatch counters are settled by the dispatcher at flush time, once per
// batch, so the final per-shard dispatched counts must equal exactly the
// attributed flows each shard received — no duplicate settling and no
// counts lost across EventBatch runs that straddle batch boundaries.
func TestDispatchSettlesOncePerBatch(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewMetrics()
	sp, err := NewShardedPipeline(reg, Options{Obs: metrics}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const groups = 3*batchCap + 19
	stream := adversarialStream(groups)
	rest := stream
	for len(rest) > 0 {
		n := min(519, len(rest)) // uneven runs straddle batch boundaries
		sp.EventBatch(rest[:n])
		rest = rest[n:]
	}
	sp.Flush()
	stats := sp.Finalize().Stats

	snap := metrics.Snapshot()
	var dispatched int64
	for _, sh := range snap.Shards {
		dispatched += sh.Dispatched
	}
	// Every processed flow was dispatched to exactly one shard; HTTP
	// entries and drops never touch the dispatch counters.
	if dispatched != stats.FlowsProcessed {
		t.Errorf("dispatched sum %d != flows processed %d (settle-once violated)",
			dispatched, stats.FlowsProcessed)
	}
}

// slotLog is one shard slot as the dispatcher filled it.
type slotLog struct {
	kind eventKind
	adm  admission
}

// recordShards swaps sp's shard workers for recorders that log every slot
// the dispatcher fills, in shard order. The returned function flushes
// sp, stops the recorders and returns each shard's log; sp must not be
// used afterwards.
func recordShards(sp *ShardedPipeline) func() [][]slotLog {
	logs := make([][]slotLog, len(sp.rings))
	var wg sync.WaitGroup
	for i := range sp.rings {
		sp.rings[i].close()
		<-sp.done[i]
		ring := newBatchRing(defaultRingCap)
		sp.rings[i] = ring
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				b, ok := ring.pop()
				if !ok {
					return
				}
				for j := 0; j < b.n; j++ {
					logs[i] = append(logs[i], slotLog{kind: b.events[j].kind, adm: b.events[j].adm})
				}
			}
		}(i)
	}
	return func() [][]slotLog {
		sp.Flush()
		for _, r := range sp.rings {
			r.close()
		}
		wg.Wait()
		return logs
	}
}

// TestRouteAdmissionOracle re-looks up every routed event on the shard
// side: each admitted flow's MAC, day and DNS label in its shard slot (and
// each HTTP entry's MAC) must equal what a single pipeline's private
// tables resolve at the same stream position, and land on the shard its
// MAC hashes to. The stream is the
// adversarial schedule (lease renewal after a coverage gap, address reuse
// by a second device, mid-stream DNS re-resolution) plus a DNS look-ahead
// trap per group: a flow to a server whose first resolution is later in
// the stream but within LookAhead of the flow — unlabeled before that
// resolution arrives, labeled after.
func TestRouteAdmissionOracle(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	const groups = 2*batchCap + 37
	adv := adversarialStream(groups)
	per := len(adv) / groups
	base := campus.Day(10).Time().Add(6 * time.Hour)
	var stream []trace.Event
	for i := 0; i < groups; i++ {
		stream = append(stream, adv[i*per:(i+1)*per]...)
		t0 := base.Add(time.Duration(i) * 30 * time.Second)
		fl := flowAt(t0.Add(2*time.Second), netip.AddrFrom4([4]byte{198, 19, byte(i >> 8), byte(i)}), 6000+int64(i))
		fl.OrigAddr = mkIP(i)
		stream = append(stream,
			trace.Event{Kind: trace.EventFlow, Flow: fl},
			trace.Event{Kind: trace.EventDNS, DNS: dnssim.Entry{
				Time: t0.Add(30 * time.Minute), Query: "zoom.us", Answer: fl.RespAddr}},
			trace.Event{Kind: trace.EventFlow, Flow: fl})
	}
	key := []byte("parity-test-key-0123456789abcdef")

	for _, shards := range []int{1, 4} {
		// The oracle: the single pipeline's admission of each event just
		// before it is delivered, bucketed by the shard it must reach.
		single, err := NewPipeline(reg, Options{Key: key})
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]slotLog, shards)
		for i := range stream {
			ev := &stream[i]
			var a admission
			var kind eventKind
			switch ev.Kind {
			case trace.EventFlow:
				a, kind = admitFlow(single.join, reg, true, &ev.Flow), evFlow
			case trace.EventHTTP:
				a, kind = admitHTTP(single.join, &ev.HTTP), evHTTP
			}
			if (ev.Kind == trace.EventFlow || ev.Kind == trace.EventHTTP) && a.cut == admitted {
				s := macShard(a.mac, shards)
				want[s] = append(want[s], slotLog{kind: kind, adm: a})
			}
			ev.Deliver(single)
		}
		st := single.Finalize().Stats
		if st.FlowsUnattributed != groups || st.FlowsUnlabeled != groups {
			t.Fatalf("single: unattributed %d unlabeled %d, want %d / %d (traps not sprung)",
				st.FlowsUnattributed, st.FlowsUnlabeled, groups, groups)
		}

		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			sp, err := NewShardedPipeline(reg, Options{Key: key}, shards)
			if err != nil {
				t.Fatal(err)
			}
			collect := recordShards(sp)
			rest := stream
			for len(rest) > 0 {
				rn := min(395, len(rest)) // trap groups straddle runs
				sp.EventBatch(rest[:rn])
				rest = rest[rn:]
			}
			got := collect()
			for s := range want {
				if len(got[s]) != len(want[s]) {
					t.Fatalf("shard %d: %d slots, want %d", s, len(got[s]), len(want[s]))
				}
				for j := range want[s] {
					if got[s][j] != want[s][j] {
						t.Fatalf("shard %d slot %d: dispatcher shipped %+v, single pipeline resolves %+v",
							s, j, got[s][j], want[s][j])
					}
				}
			}
		})
	}
}
