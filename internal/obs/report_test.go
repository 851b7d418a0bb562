package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func goldenSnapshot() Snapshot {
	return Snapshot{
		Label:            "ingest",
		ElapsedSeconds:   12,
		Events:           1234567,
		Bytes:            4560000000,
		EventsPerSec:     102880.58,
		BytesPerSec:      380000000,
		InstEventsPerSec: 99000,
		InstBytesPerSec:  360000000,
		Done:             42,
		Total:            121,
		ETASeconds:       22.6,
		Stages: []StageSnapshot{
			{Stage: "ingest", Events: 1234567, Bytes: 4560000000},
			{Stage: "tap_filter", Events: 1200000, Drops: 34567},
		},
	}
}

// TestJSONReporterGolden pins the exact wire format of the JSON emitter.
func TestJSONReporterGolden(t *testing.T) {
	var b strings.Builder
	r := &JSONReporter{W: &b}
	if err := r.Report(goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	const want = `{"label":"ingest","elapsed_s":12,"events":1234567,"bytes":4560000000,` +
		`"events_per_sec":102880.58,"bytes_per_sec":380000000,` +
		`"inst_events_per_sec":99000,"inst_bytes_per_sec":360000000,` +
		`"done":42,"total":121,"eta_s":22.6,` +
		`"stages":[{"stage":"ingest","events":1234567,"bytes":4560000000},` +
		`{"stage":"tap_filter","events":1200000,"drops":34567}]}` + "\n"
	if b.String() != want {
		t.Errorf("JSON output mismatch:\n got: %s\nwant: %s", b.String(), want)
	}
	// And it must round-trip.
	var s Snapshot
	if err := json.Unmarshal([]byte(b.String()), &s); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if s.Events != 1234567 || len(s.Stages) != 2 {
		t.Errorf("round-trip lost fields: %+v", s)
	}
}

// TestTextReporterGolden pins the human-readable line format.
func TestTextReporterGolden(t *testing.T) {
	var b strings.Builder
	r := &TextReporter{W: &b}
	if err := r.Report(goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	const want = "ingest 12.0s  1.23M ev (102.9k/s)  4.56 GB (380.0 MB/s)  42/121  eta 23s\n"
	if b.String() != want {
		t.Errorf("text output mismatch:\n got: %q\nwant: %q", b.String(), want)
	}
}

// collectReporter captures snapshots for assertions.
type collectReporter struct {
	mu   sync.Mutex
	snap []Snapshot
}

func (c *collectReporter) Report(s Snapshot) error {
	c.mu.Lock()
	c.snap = append(c.snap, s)
	c.mu.Unlock()
	return nil
}

func TestProgressLoop(t *testing.T) {
	m := NewMetrics()
	c := &collectReporter{}
	p := NewProgress(m, c, 10*time.Millisecond)
	p.SetLabel("test")
	p.SetTotal(10)
	p.Start()
	for i := 1; i <= 10; i++ {
		m.Add(StageIngest, 1000)
		p.SetDone(int64(i))
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop()
	p.Stop() // idempotent
	if len(c.snap) < 2 {
		t.Fatalf("got %d snapshots, want ≥2 (ticks + final)", len(c.snap))
	}
	last := c.snap[len(c.snap)-1]
	if last.Events != 10 || last.Bytes != 10000 {
		t.Errorf("final snapshot = %d ev / %d B, want 10 / 10000", last.Events, last.Bytes)
	}
	if last.Done != 10 || last.Total != 10 {
		t.Errorf("final done/total = %d/%d, want 10/10", last.Done, last.Total)
	}
	if last.ETASeconds != 0 {
		t.Errorf("final snapshot should omit ETA, got %v", last.ETASeconds)
	}
	if last.Label != "test" {
		t.Errorf("label = %q", last.Label)
	}
	// Mid-run ticks with done<total must carry an ETA.
	sawETA := false
	for _, s := range c.snap[:len(c.snap)-1] {
		if s.ETASeconds > 0 {
			sawETA = true
		}
	}
	if !sawETA {
		t.Error("no mid-run snapshot carried an ETA")
	}
}

func TestServeDebug(t *testing.T) {
	m := NewMetrics()
	m.Add(StageIngest, 42)
	d, err := ServeDebug("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + d.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	raw, ok := vars["obs"]
	if !ok {
		t.Fatalf("/debug/vars missing obs key; have %d keys", len(vars))
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if s.Events != 1 || s.Bytes != 42 {
		t.Errorf("obs var = %+v, want 1 event / 42 bytes", s)
	}
	// pprof index must be mounted too.
	resp2, err := http.Get("http://" + d.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status = %d", resp2.StatusCode)
	}
	if _, err := ServeDebug("127.0.0.1:0", nil); err == nil {
		t.Error("ServeDebug(nil) should fail")
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := []struct{ got, want string }{
		{siCount(999), "999"},
		{siCount(1500), "1.5k"},
		{siCount(2.5e6), "2.50M"},
		{siCount(3.2e9), "3.20G"},
		{siBytes(512), "512 B"},
		{siBytes(2048), "2.0 KB"},
		{siBytes(3.5e6), "3.5 MB"},
		{siBytes(4.2e9), "4.20 GB"},
		{siBytes(1.5e12), "1.50 TB"},
		{fmtETA(72), "72s"},
		{fmtETA(150), "2m30s"},
		{fmtETA(3900), "1h05m"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}
