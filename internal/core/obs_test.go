package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/universe"
)

// obsFixtureKey keeps instrumented and uninstrumented runs comparable.
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
	if len(snap.Counters) != 0 {
		t.Errorf("single pipeline registered cells %v, want none", snap.Counters)
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
