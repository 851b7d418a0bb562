package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/httplog"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/universe"
)

// forceRouter swaps a freshly constructed pipeline's route pool for one
// with the given lane count, regardless of GOMAXPROCS — single-processor
// CI must still exercise the parallel phase-B path (the goroutines
// interleave even on one core, and -race checks the handoffs).
func forceRouter(sp *ShardedPipeline, lanes int) {
	if sp.router != nil {
		sp.router.close()
	}
	sp.router = newRoutePool(sp, lanes)
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

// TestParallelRouteParity is the exactness oracle for the multi-worker
// decode/route stage specifically: with the route pool FORCED on (CI
// machines may report GOMAXPROCS=1, which would otherwise leave phase B
// inline) and runs long enough to clear routeParallelMin, the adversarial
// trap schedule must still match the single pipeline field for field and
// device for device. Run under -race in the race job, un-short.
func TestParallelRouteParity(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	const groups = 2*batchCap + 37
	stream := adversarialStream(groups)
	key := []byte("parity-test-key-0123456789abcdef")

	single, err := NewPipeline(reg, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	for i := range stream {
		stream[i].Deliver(single)
	}
	dsSingle := single.Finalize()
	want := dsSingle.Stats
	if want.FlowsProcessed != 4*groups || want.FlowsUnattributed != groups {
		t.Fatalf("single: processed %d unattributed %d, want %d / %d",
			want.FlowsProcessed, want.FlowsUnattributed, 4*groups, groups)
	}

	for _, n := range []int{1, 4, 8} {
		for _, lanes := range []int{2, 4} {
			t.Run(fmt.Sprintf("shards-%d-lanes-%d", n, lanes), func(t *testing.T) {
				sp, err := NewShardedPipeline(reg, Options{Key: key}, n)
				if err != nil {
					t.Fatal(err)
				}
				forceRouter(sp, lanes)
				// Runs comfortably above routeParallelMin so every
				// EventBatch takes the three-phase path; uneven size so
				// trap groups straddle run boundaries.
				rest := stream
				for len(rest) > 0 {
					rn := min(3*routeParallelMin+11, len(rest))
					sp.EventBatch(rest[:rn])
					rest = rest[rn:]
				}
				sp.Flush()
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
				}
			})
		}
	}
}

// TestRouteShortRunStaysSerial pins the fallback: runs below
// routeParallelMin must not enter the route pool (the fixed cost of a
// parallel round would dominate). Observed via a pool whose workers would
// panic if fed.
func TestRouteShortRunStaysSerial(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewShardedPipeline(reg, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A poisoned pool: any job handed to a worker fails the test.
	poisoned := &routePool{sp: sp, jobs: make([]chan routeJob, 1), done: make(chan struct{}, 1)}
	poisoned.jobs[0] = make(chan routeJob)
	go func() {
		for range poisoned.jobs[0] {
			t.Error("short run reached a route worker")
			poisoned.done <- struct{}{}
		}
	}()
	if sp.router != nil {
		sp.router.close()
	}
	sp.router = poisoned
	stream := adversarialStream(4) // 11 events/group, well under routeParallelMin
	if len(stream) >= routeParallelMin {
		t.Fatalf("stream too long for the short-run test: %d", len(stream))
	}
	sp.EventBatch(stream)
	sp.Flush()
	sp.router = nil // let Finalize skip closing the poisoned pool's channel twice
	close(poisoned.jobs[0])
	ds := sp.Finalize()
	if ds.Stats.FlowsProcessed == 0 {
		t.Fatal("short run processed nothing")
	}
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
	forceRouter(sp, 2)
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
		n := min(2*routeParallelMin, len(rest))
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

// TestDispatchSettlesOncePerBatch audits the PR 3 invariant under the
// multi-worker decode stage: dispatch counters are settled by the
// sequencer at flush time, once per batch, so the final per-shard
// dispatched counts must equal exactly the attributed flows each shard
// received — no duplicate settling from route workers (they only decide,
// never place) and no lost counts across the three-phase path.
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
	forceRouter(sp, 4)
	const groups = 3*batchCap + 19
	stream := adversarialStream(groups)
	rest := stream
	for len(rest) > 0 {
		n := min(4*routeParallelMin+7, len(rest))
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
