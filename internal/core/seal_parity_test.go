package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/trace"
	"repro/internal/universe"
)

// sealTestKey pins pseudonyms so live and restored runs agree.
var sealTestKey = []byte("seal-parity-key-0123456789abcdef")

// teeSink fans every event out to multiple sinks in order — it drives a
// live pipeline and a checkpoint-restored twin from one generator stream.
type teeSink struct{ sinks []trace.Sink }

func (t *teeSink) Flow(r flow.Record) {
	for _, s := range t.sinks {
		s.Flow(r)
	}
}
func (t *teeSink) DNS(e dnssim.Entry) {
	for _, s := range t.sinks {
		s.DNS(e)
	}
}
func (t *teeSink) HTTPMeta(e httplog.Entry) {
	for _, s := range t.sinks {
		s.HTTPMeta(e)
	}
}
func (t *teeSink) Lease(l dhcp.Lease) {
	for _, s := range t.sinks {
		s.Lease(l)
	}
}

// TestSealDayMatchesSnapshot pins the incremental-seal contract for the
// single pipeline over a multi-day window:
//
//  1. at every seal, SnapshotDelta over the previous snapshot equals a
//     full Snapshot (the copy-on-write delta re-renders exactly the
//     touched set);
//  2. the per-day Stats deltas sum to the cumulative Stats, and the merged
//     touched sets cover every device;
//  3. sealing is side-effect free: Finalize equals a never-sealed run.
func TestSealDayMatchesSnapshot(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(reg, Options{Key: sealTestKey})
	if err != nil {
		t.Fatal(err)
	}

	var (
		g       *trace.Generator
		prev    *Dataset
		parts   []*DayPartial
		cum     Stats
		touched int
	)
	for day := snapFrom; day < snapTo; day++ {
		g = runWindow(t, g, reg, p, day, day+1)
		dp := p.SealDay(fmt.Sprintf("day-%03d", day))
		parts = append(parts, dp)
		cum = cum.Add(dp.Stats)
		touched += len(dp.Touched)

		full := p.Snapshot()
		delta := p.SnapshotDelta(prev, dp)
		mustEqualDatasets(t, fmt.Sprintf("day %d delta vs full snapshot", day), full, delta)
		if cum != delta.Stats {
			t.Fatalf("day %d: summed deltas %+v != snapshot stats %+v", day, cum, delta.Stats)
		}
		prev = delta
	}
	if touched == 0 {
		t.Fatal("degenerate run: no devices touched")
	}

	merged, err := MergeDayPartials(parts)
	if err != nil {
		t.Fatal(err)
	}
	final := p.Finalize()
	if merged.Stats != final.Stats {
		t.Fatalf("merged partial stats %+v != final stats %+v", merged.Stats, final.Stats)
	}
	if got, want := len(merged.Touched), len(final.Devices); got != want {
		t.Fatalf("merged touched %d devices, dataset has %d", got, want)
	}

	// A never-sealed pipeline over the same stream finalizes identically.
	clean, err := NewPipeline(reg, Options{Key: sealTestKey})
	if err != nil {
		t.Fatal(err)
	}
	runWindow(t, nil, reg, clean, snapFrom, snapTo)
	mustEqualDatasets(t, "sealed vs never-sealed finalize", clean.Finalize(), final)
}

// TestCheckpointRoundTrip pins the checkpoint contract: a pipeline
// restored from EncodeCheckpoint and fed the remaining days finalizes
// byte-identically (canonical dataset encoding) to the pipeline that never
// stopped — the property the per-day stats cache rests on. Also checks the
// seal boundary guard and decode-side corruption rejection.
func TestCheckpointRoundTrip(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Key: sealTestKey}
	p1, err := NewPipeline(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := runWindow(t, nil, reg, p1, snapFrom, snapMid)

	if _, err := p1.EncodeCheckpoint(); err == nil {
		t.Fatal("EncodeCheckpoint mid-day (unsealed) did not error")
	}
	p1.SealDay("prefix")
	ckpt, err := p1.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Corruption is rejected.
	bad := append([]byte(nil), ckpt...)
	bad[len(bad)/2] ^= 0x40
	if _, err := RestoreCheckpoint(reg, opts, bad); err == nil {
		t.Fatal("corrupted checkpoint decoded without error")
	}

	p2, err := RestoreCheckpoint(reg, opts, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Stats() != p1.Stats() {
		t.Fatalf("restored stats %+v != original %+v", p2.Stats(), p1.Stats())
	}

	// Feed the identical remaining stream to both; they must stay in
	// lockstep through the next seal and through Finalize.
	runWindow(t, g, reg, &teeSink{sinks: []trace.Sink{p1, p2}}, snapMid, snapTo)
	dp1 := p1.SealDay("rest")
	dp2 := p2.SealDay("rest")
	if dp1.Stats != dp2.Stats {
		t.Fatalf("post-restore seal delta differs:\nlive     %+v\nrestored %+v", dp1.Stats, dp2.Stats)
	}
	if len(dp1.Touched) != len(dp2.Touched) {
		t.Fatalf("post-restore touched %d vs %d", len(dp1.Touched), len(dp2.Touched))
	}
	b1 := EncodeDataset(p1.Finalize())
	b2 := EncodeDataset(p2.Finalize())
	if !bytes.Equal(b1, b2) {
		t.Fatal("restored pipeline finalize not byte-identical to uninterrupted run")
	}
}

// TestSealWhileIngestConcurrentReaders exercises the daemon's pattern
// under the race detector: the ingest goroutine seals each day and
// publishes a copy-on-write delta snapshot; concurrent readers walk every
// snapshot published so far — including records shared, unre-rendered,
// with older snapshots — while ingest keeps running.
func TestSealWhileIngestConcurrentReaders(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(reg, Options{Key: sealTestKey})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu        sync.Mutex
		published []*Dataset
		done      = make(chan struct{})
		wg        sync.WaitGroup
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				snaps := append([]*Dataset(nil), published...)
				mu.Unlock()
				var sum float64
				for _, ds := range snaps {
					for _, d := range ds.Devices {
						sum += d.TotalBytes()
						if d.PostShutdown {
							sum += float64(d.SitesAprMay)
						}
					}
					_ = ds.PostShutdownUsers()
				}
				_ = sum
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}

	var g *trace.Generator
	var prev *Dataset
	for day := snapFrom; day < snapTo; day++ {
		g = runWindow(t, g, reg, p, day, day+1)
		dp := p.SealDay(fmt.Sprintf("day-%03d", day))
		prev = p.SnapshotDelta(prev, dp)
		mu.Lock()
		published = append(published, prev)
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	p.Finalize()

	if len(published) == 0 || published[len(published)-1].Stats.FlowsProcessed == 0 {
		t.Fatal("degenerate run: nothing published")
	}
}
