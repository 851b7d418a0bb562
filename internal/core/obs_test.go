package core

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/universe"
)

// obsFixtureKey keeps instrumented runs comparable across pipelines.
var obsFixtureKey = []byte("obs-counter-accuracy-key-0123456789")

func stageByName(t *testing.T, s obs.Snapshot, name string) obs.StageSnapshot {
	t.Helper()
	for _, st := range s.Stages {
		if st.Stage == name {
			return st
		}
	}
	t.Fatalf("snapshot has no stage %q (stages: %+v)", name, s.Stages)
	return obs.StageSnapshot{}
}

// expvarCounters serves m on a loopback debug endpoint and returns the
// registered cells at the JSON path /debug/vars serves them under.
func expvarCounters(t *testing.T, m *obs.Metrics) map[string]int64 {
	t.Helper()
	d, err := obs.ServeDebug("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + d.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Obs struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"obs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	return vars.Obs.Counters
}

// TestPipelineCounterAccuracy checks that the obs layer's per-stage
// counters exactly mirror the pipeline's own Stats over a real generated
// workload.
func TestPipelineCounterAccuracy(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.01
	gen, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	pipe, err := NewPipeline(reg, Options{Key: obsFixtureKey, Obs: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.RunDays(pipe, 0, 21); err != nil {
		t.Fatal(err)
	}
	ds := pipe.Finalize()
	st := ds.Stats
	snap := m.Snapshot()

	flowsSeen := st.FlowsProcessed + st.FlowsTapDropped + st.FlowsOutOfWindow + st.FlowsUnattributed
	wantEvents := flowsSeen + st.DNSEntries + st.HTTPEntries + st.Leases
	if snap.Events != wantEvents {
		t.Errorf("ingest events = %d, want %d (flows %d + dns %d + http %d + leases %d)",
			snap.Events, wantEvents, flowsSeen, st.DNSEntries, st.HTTPEntries, st.Leases)
	}
	tap := stageByName(t, snap, "tap_filter")
	if tap.Drops != st.FlowsTapDropped+st.FlowsOutOfWindow {
		t.Errorf("tap drops = %d, want %d", tap.Drops, st.FlowsTapDropped+st.FlowsOutOfWindow)
	}
	if tap.Events != flowsSeen-tap.Drops {
		t.Errorf("tap accepts = %d, want %d", tap.Events, flowsSeen-tap.Drops)
	}
	dhcpS := stageByName(t, snap, "dhcp_normalize")
	if dhcpS.Events != st.FlowsProcessed || dhcpS.Drops != st.FlowsUnattributed {
		t.Errorf("dhcp stage = %d/%d, want %d/%d",
			dhcpS.Events, dhcpS.Drops, st.FlowsProcessed, st.FlowsUnattributed)
	}
	dns := stageByName(t, snap, "dns_label")
	if dns.Drops != st.FlowsUnlabeled {
		t.Errorf("dns drops = %d, want %d", dns.Drops, st.FlowsUnlabeled)
	}
	if dns.Events != st.FlowsProcessed-st.FlowsUnlabeled {
		t.Errorf("dns labels = %d, want %d", dns.Events, st.FlowsProcessed-st.FlowsUnlabeled)
	}
	agg := stageByName(t, snap, "aggregate")
	if agg.Events != st.FlowsProcessed || agg.Bytes != st.BytesProcessed {
		t.Errorf("aggregate = %d ev / %d B, want %d / %d",
			agg.Events, agg.Bytes, st.FlowsProcessed, st.BytesProcessed)
	}
	app := stageByName(t, snap, "appsig_match")
	if app.Events+app.Drops != st.FlowsProcessed {
		t.Errorf("appsig matched %d + unmatched %d != processed %d",
			app.Events, app.Drops, st.FlowsProcessed)
	}
	if app.Events == 0 {
		t.Error("no appsig matches at all — fixture too small?")
	}
	if len(snap.Shards) != 0 {
		t.Errorf("single pipeline should have no shard snapshots, got %d", len(snap.Shards))
	}
	if len(snap.Counters) != 0 {
		t.Errorf("single pipeline registered cells %v, want none", snap.Counters)
	}
}

// TestShardedCounterAccuracy is the satellite's race-detector target: four
// concurrent shards share one Metrics while a polling goroutine snapshots
// it, and the final counters must reconcile with the merged Stats.
func TestShardedCounterAccuracy(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.01
	gen, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	sp, err := NewShardedPipeline(reg, Options{Key: obsFixtureKey, Obs: m}, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent snapshotting while the shards ingest (what Progress and
	// the debug endpoint do in production).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := m.Snapshot()
				if len(s.Shards) != 4 {
					t.Errorf("mid-run snapshot shards = %d, want 4", len(s.Shards))
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	if err := gen.RunDays(sp, 0, 21); err != nil {
		t.Fatal(err)
	}
	ds := sp.Finalize()
	close(stop)
	wg.Wait()

	st := ds.Stats
	snap := m.Snapshot()

	// DNS entries and leases are applied exactly once, at the dispatcher's
	// shared stores — no per-shard amplification — so the ingest counter
	// must equal a single pipeline's: every event counted once.
	flowsSeen := st.FlowsProcessed + st.FlowsTapDropped + st.FlowsOutOfWindow + st.FlowsUnattributed
	wantEvents := flowsSeen + st.DNSEntries + st.Leases + st.HTTPEntries
	if snap.Events != wantEvents {
		t.Errorf("ingest events = %d, want %d", snap.Events, wantEvents)
	}
	// Epoch accounting: the dispatcher sealed at least one snapshot epoch,
	// the shards pinned batches against it, and the snapshot-size gauge
	// reflects the shared tables' retained bytes. Publishes are
	// bookkeeping, not events — they must not have inflated the ingest
	// counter above (the equality already proves they didn't).
	if snap.Counters["epochs_published"] == 0 {
		t.Error("no snapshot epochs published by a sharded run")
	}
	if snap.Counters["epoch_pins"] == 0 {
		t.Error("no shard batches pinned to a snapshot epoch")
	}
	if snap.Counters["snapshot_bytes"] == 0 {
		t.Error("snapshot-size gauge never set")
	}
	// The same cells are live at the path expvar serves: obs.counters.
	served := expvarCounters(t, m)
	for _, name := range []string{"epochs_published", "epoch_pins", "snapshot_bytes"} {
		if served[name] == 0 || served[name] != snap.Counters[name] {
			t.Errorf("/debug/vars obs.counters.%s = %d, snapshot says %d", name, served[name], snap.Counters[name])
		}
	}
	dhcpS := stageByName(t, snap, "dhcp_normalize")
	if dhcpS.Events != st.FlowsProcessed || dhcpS.Drops != st.FlowsUnattributed {
		t.Errorf("dhcp stage = %d/%d, want %d/%d",
			dhcpS.Events, dhcpS.Drops, st.FlowsProcessed, st.FlowsUnattributed)
	}
	agg := stageByName(t, snap, "aggregate")
	if agg.Events != st.FlowsProcessed || agg.Bytes != st.BytesProcessed {
		t.Errorf("aggregate = %d ev / %d B, want %d / %d",
			agg.Events, agg.Bytes, st.FlowsProcessed, st.BytesProcessed)
	}

	// Every attributed flow was dispatched to exactly one shard.
	if len(snap.Shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(snap.Shards))
	}
	var dispatched int64
	for _, sh := range snap.Shards {
		dispatched += sh.Dispatched
	}
	if dispatched != flowsSeen-st.FlowsUnattributed {
		t.Errorf("dispatched sum = %d, want %d", dispatched, flowsSeen-st.FlowsUnattributed)
	}
	if snap.Imbalance < 1.0 {
		t.Errorf("imbalance = %.3f, want ≥ 1.0", snap.Imbalance)
	}
	// Drained pipeline: every queue must be empty.
	for i, sh := range m.Snapshot().Shards {
		if sh.QueueDepth != 0 {
			t.Errorf("shard %d queue depth = %d after Finalize", i, sh.QueueDepth)
		}
	}
}

// TestObsDoesNotChangeResults: the same workload with and without
// instrumentation must produce identical datasets (counters only observe).
func TestObsDoesNotChangeResults(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	run := func(m *obs.Metrics) *Dataset {
		cfg := trace.DefaultConfig()
		cfg.Scale = 0.005
		gen, err := trace.New(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := NewPipeline(reg, Options{Key: obsFixtureKey, Obs: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := gen.RunDays(pipe, 0, 28); err != nil {
			t.Fatal(err)
		}
		return pipe.Finalize()
	}
	plain := run(nil)
	instr := run(obs.NewMetrics())
	if plain.Stats != instr.Stats {
		t.Errorf("stats diverge: %+v vs %+v", plain.Stats, instr.Stats)
	}
	if len(plain.Devices) != len(instr.Devices) {
		t.Fatalf("device counts diverge: %d vs %d", len(plain.Devices), len(instr.Devices))
	}
	for i := range plain.Devices {
		a, b := plain.Devices[i], instr.Devices[i]
		if a.ID != b.ID || a.Type != b.Type || a.Flows != b.Flows || a.TotalBytes() != b.TotalBytes() {
			t.Errorf("device %d diverges: %v/%v/%d vs %v/%v/%d",
				i, a.ID, a.Type, a.Flows, b.ID, b.Type, b.Flows)
		}
	}
}
