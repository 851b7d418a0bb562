package logsink

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/trace"
	"repro/internal/universe"
)

// tally counts replayed events and verifies flow ordering.
type tally struct {
	t                        *testing.T
	flows, dns, http, leases int
	bytes                    int64
	lastFlow                 time.Time
}

func (s *tally) Flow(r flow.Record) {
	s.flows++
	s.bytes += r.TotalBytes()
	if r.Start.Before(s.lastFlow) {
		s.t.Fatal("replayed flows out of order")
	}
	s.lastFlow = r.Start
}
func (s *tally) DNS(dnssim.Entry)       { s.dns++ }
func (s *tally) HTTPMeta(httplog.Entry) { s.http++ }
func (s *tally) Lease(dhcp.Lease)       { s.leases++ }

func TestWriteThenReplayMatchesLive(t *testing.T) {
	if testing.Short() {
		t.Skip("disk round trip")
	}
	dir := t.TempDir()
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.005
	g, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}

	// Live pass: count events directly.
	live := &tally{t: t}
	if err := g.RunDays(live, 5, 12); err != nil {
		t.Fatal(err)
	}

	// Disk pass: same generator config written to logs, then replayed.
	g2, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.RunDays(w, 5, 12); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ConnFile, DNSFile, DHCPFile, HTTPFile} {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Fatalf("log %s missing or empty: %v", name, err)
		}
	}

	replayed := &tally{t: t}
	if err := ReplayWithOptions(dir, replayed, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	if replayed.flows != live.flows || replayed.dns != live.dns ||
		replayed.http != live.http || replayed.leases != live.leases {
		t.Errorf("replay counts %d/%d/%d/%d != live %d/%d/%d/%d",
			replayed.flows, replayed.dns, replayed.http, replayed.leases,
			live.flows, live.dns, live.http, live.leases)
	}
	if replayed.bytes != live.bytes {
		t.Errorf("replay bytes %d != live %d", replayed.bytes, live.bytes)
	}
	_ = campus.NumDays
}

// batchTally is a tally that also accepts the trace.BatchSink fast path,
// so Replay hands it event runs instead of per-event calls.
type batchTally struct {
	tally
	batches int
	flushes int
	days    map[time.Time]struct{}
}

func (s *batchTally) EventBatch(events []trace.Event) {
	s.batches++
	for i := range events {
		switch events[i].Kind {
		case trace.EventFlow:
			s.day(events[i].Flow.Start)
		case trace.EventDNS:
			s.day(events[i].DNS.Time)
		case trace.EventHTTP:
			s.day(events[i].HTTP.Time)
		}
		events[i].Deliver(&s.tally)
	}
}

// day records the distinct UTC days seen in the merged stream — leases are
// replayed up front and carry no epoch boundary of their own.
func (s *batchTally) day(t time.Time) {
	if s.days == nil {
		s.days = make(map[time.Time]struct{})
	}
	s.days[t.UTC().Truncate(24*time.Hour)] = struct{}{}
}

func (s *batchTally) Flush() { s.flushes++ }

func TestReplayBatchedMatchesPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("disk round trip")
	}
	dir := t.TempDir()
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.005
	g, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunDays(w, 5, 9); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	plain := &tally{t: t}
	if err := ReplayWithOptions(dir, plain, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	batched := &batchTally{tally: tally{t: t}}
	if err := ReplayWithOptions(dir, batched, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	// Replay seals an epoch at every UTC day rollover plus one final flush
	// at end of input: (days-1) rollovers + 1 = one flush per distinct day.
	if batched.batches == 0 || batched.flushes != len(batched.days) {
		t.Errorf("batches = %d, flushes = %d over %d replayed days; want one flush per day",
			batched.batches, batched.flushes, len(batched.days))
	}
	if batched.flows != plain.flows || batched.dns != plain.dns ||
		batched.http != plain.http || batched.leases != plain.leases ||
		batched.bytes != plain.bytes {
		t.Errorf("batched replay %d/%d/%d/%d (%d bytes) != per-event %d/%d/%d/%d (%d bytes)",
			batched.flows, batched.dns, batched.http, batched.leases, batched.bytes,
			plain.flows, plain.dns, plain.http, plain.leases, plain.bytes)
	}
}

func TestReplayMissingDir(t *testing.T) {
	if err := ReplayWithOptions("/nonexistent-dataset-dir", &tally{t: t}, ReplayOptions{}); err == nil {
		t.Error("missing directory accepted")
	}
}

func TestGzipRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("disk round trip")
	}
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.005
	plainDir, gzDir := t.TempDir(), t.TempDir()

	write := func(dir string, gz bool) *tally {
		g, err := trace.New(cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		var w *Writer
		if gz {
			w, err = NewGzipWriter(dir)
		} else {
			w, err = NewWriter(dir)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := g.RunDays(w, 8, 12); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got := &tally{t: t}
		if err := ReplayWithOptions(dir, got, ReplayOptions{}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	plain := write(plainDir, false)
	zipped := write(gzDir, true)
	if plain.flows != zipped.flows || plain.bytes != zipped.bytes ||
		plain.dns != zipped.dns || plain.leases != zipped.leases {
		t.Errorf("gzip replay differs: %+v vs %+v", plain, zipped)
	}
	// Compression actually happened.
	ps, err := os.Stat(filepath.Join(plainDir, ConnFile))
	if err != nil {
		t.Fatal(err)
	}
	zs, err := os.Stat(filepath.Join(gzDir, ConnFile+".gz"))
	if err != nil {
		t.Fatal(err)
	}
	if zs.Size() >= ps.Size()/2 {
		t.Errorf("gzip conn.log %d bytes vs plain %d — little compression", zs.Size(), ps.Size())
	}
}

func TestWriterCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "logs")
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Empty logs are valid and replayable.
	if err := ReplayWithOptions(dir, &tally{t: t}, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
}
