package core

import (
	"testing"

	"repro/internal/anonymize"
	"repro/internal/campus"
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
