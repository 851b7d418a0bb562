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
