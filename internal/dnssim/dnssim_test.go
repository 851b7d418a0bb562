package dnssim

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
	"time"

	"repro/internal/universe"
)

var t0 = time.Date(2020, time.February, 10, 9, 0, 0, 0, time.UTC)

func testResolver(t testing.TB) (*Resolver, *universe.Registry) {
	t.Helper()
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	return NewResolver(reg, 0), reg
}

func TestQueryKnownDomain(t *testing.T) {
	r, reg := testResolver(t)
	client := netip.MustParseAddr("10.1.2.3")
	e, ok := r.Query(client, "facebook.com", t0)
	if !ok {
		t.Fatal("facebook.com did not resolve")
	}
	if e.Query != "facebook.com" || e.Client != client || e.TTL != DefaultTTL {
		t.Errorf("entry = %+v", e)
	}
	info, ok := reg.LookupAddr(e.Answer)
	if !ok || info.Domain != "facebook.com" {
		t.Errorf("answer %v attributed to %+v", e.Answer, info)
	}
}

func TestQueryNXDomain(t *testing.T) {
	r, _ := testResolver(t)
	if _, ok := r.Query(netip.MustParseAddr("10.1.2.3"), "no-such-site.example", t0); ok {
		t.Error("unregistered domain resolved")
	}
}

func TestQueryStableWithinTTLBucket(t *testing.T) {
	r, _ := testResolver(t)
	client := netip.MustParseAddr("10.1.2.3")
	e1, _ := r.Query(client, "steamcontent.com", t0)
	e2, _ := r.Query(client, "steamcontent.com", t0.Add(10*time.Second))
	if e1.Answer != e2.Answer {
		t.Error("answers differ within one TTL bucket")
	}
}

func TestQueryRotatesAcrossClientsOrTime(t *testing.T) {
	r, _ := testResolver(t)
	seen := map[netip.Addr]bool{}
	for i := 0; i < 32; i++ {
		client := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		e, ok := r.Query(client, "netflix.com", t0)
		if !ok {
			t.Fatal("netflix.com did not resolve")
		}
		seen[e.Answer] = true
	}
	if len(seen) < 2 {
		t.Errorf("no rotation across clients: %d distinct answers", len(seen))
	}
}

// label is the domain-string lookup a flow gets: its server's index, then
// the span at t.
func label(l *Labeler, server netip.Addr, t time.Time) (string, bool) {
	d, ok := l.Label(l.Server(server), t)
	return l.Name(d), ok
}

func TestLabelerBasic(t *testing.T) {
	r, _ := testResolver(t)
	l := NewLabeler()
	client := netip.MustParseAddr("10.1.2.3")
	e, _ := r.Query(client, "instagram.com", t0)
	l.Observe(e)
	if got, ok := label(l, e.Answer, t0.Add(time.Minute)); !ok || got != "instagram.com" {
		t.Errorf("Label = %q, %v", got, ok)
	}
	// Flows long after the resolution still label (sticky semantics).
	if got, ok := label(l, e.Answer, t0.Add(48*time.Hour)); !ok || got != "instagram.com" {
		t.Errorf("late Label = %q, %v", got, ok)
	}
	// Unknown server.
	if _, ok := label(l, netip.MustParseAddr("198.51.100.1"), t0); ok {
		t.Error("unknown server labeled")
	}
}

func TestLabelerLookAhead(t *testing.T) {
	l := NewLabeler()
	server := netip.MustParseAddr("203.0.113.5")
	l.Observe(Entry{Time: t0, Client: netip.MustParseAddr("10.0.0.1"), Query: "example.org", Answer: server, TTL: DefaultTTL})
	// Flow 30s before first resolution: tolerated.
	if got, ok := label(l, server, t0.Add(-30*time.Second)); !ok || got != "example.org" {
		t.Errorf("look-ahead Label = %q, %v", got, ok)
	}
	// Flow 2h before: outside look-ahead.
	if _, ok := label(l, server, t0.Add(-2*time.Hour)); ok {
		t.Error("distant pre-resolution flow labeled")
	}
}

func TestLabelerAddressMigration(t *testing.T) {
	// Same address serving different domains over time: time-aware lookup
	// must attribute each era correctly.
	l := NewLabeler()
	server := netip.MustParseAddr("203.0.113.9")
	client := netip.MustParseAddr("10.0.0.1")
	l.Observe(Entry{Time: t0, Client: client, Query: "old.example", Answer: server})
	l.Observe(Entry{Time: t0.Add(time.Hour), Client: client, Query: "new.example", Answer: server})
	if got, _ := label(l, server, t0.Add(30*time.Minute)); got != "old.example" {
		t.Errorf("era 1 = %q", got)
	}
	if got, _ := label(l, server, t0.Add(90*time.Minute)); got != "new.example" {
		t.Errorf("era 2 = %q", got)
	}
}

func TestLabelerCoalescesRepeats(t *testing.T) {
	l := NewLabeler()
	server := netip.MustParseAddr("203.0.113.9")
	for i := 0; i < 1000; i++ {
		l.Observe(Entry{
			Time:   t0.Add(time.Duration(i) * time.Minute),
			Client: netip.MustParseAddr("10.0.0.1"),
			Query:  "same.example",
			Answer: server,
		})
	}
	if n := len(l.spans[l.Server(server)]); n != 1 {
		t.Errorf("repeated resolutions kept %d spans, want 1", n)
	}
	if l.Addresses() != 1 {
		t.Errorf("Addresses = %d", l.Addresses())
	}
}

func TestLogRoundTrip(t *testing.T) {
	r, _ := testResolver(t)
	var buf bytes.Buffer
	w := NewLogWriter(&buf)
	var want []Entry
	client := netip.MustParseAddr("10.5.6.7")
	for i, d := range []string{"facebook.com", "zoom.us", "bilibili.com", "steampowered.com"} {
		e, ok := r.Query(client, d, t0.Add(time.Duration(i)*time.Minute))
		if !ok {
			t.Fatalf("%s did not resolve", d)
		}
		want = append(want, e)
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lr, err := NewLogReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, exp := range want {
		got, err := lr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Time.Equal(exp.Time) || got.Client != exp.Client ||
			got.Query != exp.Query || got.Answer != exp.Answer || got.TTL != exp.TTL {
			t.Errorf("entry %d: got %+v want %+v", i, got, exp)
		}
	}
	if _, err := lr.Next(); err != io.EOF {
		t.Errorf("trailing err = %v", err)
	}
}

func TestEndToEndResolveObserveLabel(t *testing.T) {
	// Every domain in the universe: resolve → observe → label must return
	// the original domain.
	r, reg := testResolver(t)
	l := NewLabeler()
	client := netip.MustParseAddr("10.9.9.9")
	type pair struct {
		domain string
		addr   netip.Addr
	}
	var pairs []pair
	now := t0
	for _, s := range reg.Services() {
		for _, d := range s.Domains {
			now = now.Add(time.Second)
			e, ok := r.Query(client, d, now)
			if !ok {
				t.Fatalf("%s did not resolve", d)
			}
			l.Observe(e)
			pairs = append(pairs, pair{d, e.Answer})
		}
	}
	for _, p := range pairs {
		got, ok := label(l, p.addr, now.Add(time.Minute))
		if !ok || got != p.domain {
			t.Errorf("Label(%v) = %q, %v; want %q", p.addr, got, ok, p.domain)
		}
	}
}

func BenchmarkLabel(b *testing.B) {
	reg, err := universe.New()
	if err != nil {
		b.Fatal(err)
	}
	r := NewResolver(reg, 0)
	l := NewLabeler()
	client := netip.MustParseAddr("10.1.1.1")
	e, _ := r.Query(client, "facebook.com", t0)
	l.Observe(e)
	s := l.Server(e.Answer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Label(s, t0.Add(time.Minute))
	}
}

// TestLogReaderZeroAllocs pins the in-place decode: after warm-up, a
// canonical IPv4 dns log line decodes without allocating.
func TestLogReaderZeroAllocs(t *testing.T) {
	r, _ := testResolver(t)
	var buf bytes.Buffer
	w := NewLogWriter(&buf)
	domains := []string{"facebook.com", "zoom.us", "bilibili.com", "steampowered.com"}
	for i := 0; i < 400; i++ {
		client := netip.AddrFrom4([4]byte{10, 5, byte(i >> 8), byte(i)})
		e, ok := r.Query(client, domains[i%len(domains)], t0.Add(time.Duration(i)*time.Second))
		if !ok {
			t.Fatal("query did not resolve")
		}
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lr, err := NewLogReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // warm-up: fills the query vocabulary
		if _, err := lr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := lr.Next(); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("LogReader.Next: %v allocs per line, want 0", allocs)
	}
}
