package appsig

import (
	"net/netip"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2020, time.April, 6, 14, 0, 0, 0, time.UTC)

func testMatcher() *Matcher {
	return NewMatcher([]netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")})
}

func TestMatcherDomains(t *testing.T) {
	m := testMatcher()
	cases := []struct {
		domain string
		want   string
		ok     bool
	}{
		{"zoom.us", AppZoom, true},
		{"us04web.zoom.us", AppZoom, true},
		{"facebook.com", AppFacebook, true},
		{"static.xx.fbcdn.net", AppFacebook, true},
		{"facebook.net", AppFacebook, true},
		{"instagram.com", AppInstagram, true},
		{"scontent.cdninstagram.com", AppInstagram, true},
		{"tiktokcdn.com", AppTikTok, true},
		{"v16.tiktokv.com", AppTikTok, true},
		{"steamcontent.com", AppSteam, true},
		{"cdn.steamstatic.com", AppSteam, true},
		{"npns.srv.nintendo.net", AppNintendo, true},
		{"atum.hac.lp1.d4c.nintendo.net", AppNintendo, true},
		{"netflix.com", "", false},
		{"notfacebook.com", "", false},
		{"", "", false},
	}
	server := netip.MustParseAddr("198.51.100.1") // not in zoom list
	for _, c := range cases {
		got, ok := m.App(c.domain, server)
		if got != c.want || ok != c.ok {
			t.Errorf("App(%q) = %q,%v want %q,%v", c.domain, got, ok, c.want, c.ok)
		}
	}
}

func TestMatcherZoomIPFallback(t *testing.T) {
	m := testMatcher()
	// Unlabeled flow into the published Zoom range.
	got, ok := m.App("", netip.MustParseAddr("203.0.113.77"))
	if !ok || got != AppZoom {
		t.Errorf("IP fallback = %q,%v", got, ok)
	}
	// Labeled non-Zoom domain wins over IP list membership.
	got, ok = m.App("facebook.com", netip.MustParseAddr("203.0.113.77"))
	if !ok || got != AppFacebook {
		t.Errorf("domain precedence = %q,%v", got, ok)
	}
	// Outside the range, unlabeled: no match.
	if _, ok := m.App("", netip.MustParseAddr("198.51.100.1")); ok {
		t.Error("non-zoom IP matched")
	}
}

func TestIsInstagramOnly(t *testing.T) {
	if !IsInstagramOnly("instagram.com") || !IsInstagramOnly("scontent.cdninstagram.com") {
		t.Error("instagram domains not recognized")
	}
	if IsInstagramOnly("facebook.com") || IsInstagramOnly("fbcdn.net") || IsInstagramOnly("myinstagram.com.evil.example") {
		t.Error("non-instagram domain matched")
	}
}

func TestClassifyNintendo(t *testing.T) {
	if ClassifyNintendo("npns.srv.nintendo.net") != NintendoGameplayTraffic {
		t.Error("push domain not gameplay")
	}
	if ClassifyNintendo("atum.hac.lp1.d4c.nintendo.net") != NintendoOtherTraffic {
		t.Error("download domain not other")
	}
	if ClassifyNintendo("facebook.com") != NotNintendo || ClassifyNintendo("") != NotNintendo {
		t.Error("non-nintendo misclassified")
	}
}

func collectSessions() (*[]Session, func(Session)) {
	out := &[]Session{}
	return out, func(s Session) { *out = append(*out, s) }
}

func TestStitcherMergesOverlappingDomains(t *testing.T) {
	out, emit := collectSessions()
	st := NewStitcher(0, emit)
	// One Facebook session: overlapping flows to three domains.
	st.Add(1, AppFacebook, "facebook.com", t0, 5*time.Minute, 1000)
	st.Add(1, AppFacebook, "facebook.net", t0.Add(time.Minute), 2*time.Minute, 500)
	st.Add(1, AppFacebook, "fbcdn.net", t0.Add(4*time.Minute), 3*time.Minute, 2000)
	st.Flush()
	if len(*out) != 1 {
		t.Fatalf("%d sessions, want 1", len(*out))
	}
	s := (*out)[0]
	if s.App != AppFacebook || s.Flows != 3 || s.Bytes != 3500 {
		t.Errorf("session = %+v", s)
	}
	if !s.Start.Equal(t0) || !s.End.Equal(t0.Add(7*time.Minute)) {
		t.Errorf("bounds = %v..%v", s.Start, s.End)
	}
	if s.Duration() != 7*time.Minute {
		t.Errorf("duration = %v", s.Duration())
	}
}

func TestStitcherSplitsNonOverlapping(t *testing.T) {
	out, emit := collectSessions()
	st := NewStitcher(0, emit)
	st.Add(1, AppTikTok, "tiktok.com", t0, time.Minute, 100)
	st.Add(1, AppTikTok, "tiktok.com", t0.Add(10*time.Minute), time.Minute, 100)
	st.Flush()
	if len(*out) != 2 {
		t.Fatalf("%d sessions, want 2", len(*out))
	}
}

func TestStitcherGapTolerance(t *testing.T) {
	out, emit := collectSessions()
	st := NewStitcher(2*time.Minute, emit)
	st.Add(1, AppTikTok, "tiktok.com", t0, time.Minute, 100)
	st.Add(1, AppTikTok, "tiktokcdn.com", t0.Add(2*time.Minute), time.Minute, 100)
	st.Flush()
	if len(*out) != 1 {
		t.Fatalf("%d sessions, want 1 with gap tolerance", len(*out))
	}
	if (*out)[0].Duration() != 3*time.Minute {
		t.Errorf("duration = %v", (*out)[0].Duration())
	}
}

func TestInstagramHeuristic(t *testing.T) {
	out, emit := collectSessions()
	st := NewStitcher(0, emit)
	// Session touching only shared domains → Facebook.
	st.Add(1, AppFacebook, "facebook.com", t0, time.Minute, 10)
	st.Add(1, AppFacebook, "fbcdn.net", t0.Add(30*time.Second), time.Minute, 10)
	// Later session includes Instagram-only content → whole session
	// Instagram despite shared-domain flows.
	st.Add(1, AppFacebook, "fbcdn.net", t0.Add(time.Hour), 2*time.Minute, 10)
	st.Add(1, AppInstagram, "instagram.com", t0.Add(time.Hour+time.Minute), time.Minute, 10)
	st.Flush()
	if len(*out) != 2 {
		t.Fatalf("%d sessions, want 2", len(*out))
	}
	if (*out)[0].App != AppFacebook {
		t.Errorf("session 1 = %s", (*out)[0].App)
	}
	if (*out)[1].App != AppInstagram {
		t.Errorf("session 2 = %s", (*out)[1].App)
	}
}

func TestStitcherFamiliesIndependent(t *testing.T) {
	out, emit := collectSessions()
	st := NewStitcher(0, emit)
	// Interleaved TikTok and Facebook flows: one session each.
	st.Add(1, AppFacebook, "facebook.com", t0, 10*time.Minute, 1)
	st.Add(1, AppTikTok, "tiktok.com", t0.Add(time.Minute), 2*time.Minute, 1)
	st.Add(1, AppTikTok, "tiktokcdn.com", t0.Add(2*time.Minute), 2*time.Minute, 1)
	st.Add(1, AppFacebook, "fbcdn.net", t0.Add(5*time.Minute), 2*time.Minute, 1)
	st.Flush()
	if len(*out) != 2 {
		t.Fatalf("%d sessions, want 2 (one per family)", len(*out))
	}
	apps := map[string]int{}
	for _, s := range *out {
		apps[s.App]++
	}
	if apps[AppFacebook] != 1 || apps[AppTikTok] != 1 {
		t.Errorf("apps = %v", apps)
	}
}

func TestStitcherDevicesIndependent(t *testing.T) {
	out, emit := collectSessions()
	st := NewStitcher(0, emit)
	st.Add(1, AppSteam, "steamcontent.com", t0, time.Minute, 1)
	st.Add(2, AppSteam, "steamcontent.com", t0.Add(30*time.Second), time.Minute, 1)
	if st.Open() != 2 {
		t.Errorf("open = %d", st.Open())
	}
	st.Flush()
	if len(*out) != 2 {
		t.Fatalf("%d sessions", len(*out))
	}
	if st.Open() != 0 {
		t.Errorf("open after flush = %d", st.Open())
	}
}

func TestStitcherFlushDeterministic(t *testing.T) {
	run := func() []Session {
		out, emit := collectSessions()
		st := NewStitcher(0, emit)
		for dev := uint64(50); dev > 0; dev-- {
			st.Add(dev, AppSteam, "steamcontent.com", t0, time.Minute, 1)
			st.Add(dev, AppTikTok, "tiktok.com", t0, time.Minute, 1)
		}
		st.Flush()
		return *out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("count mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flush order differs at %d", i)
		}
	}
}

func TestSwitchCounters(t *testing.T) {
	devs := map[uint64]*SwitchCounters{}
	add := func(dev uint64, domain string, bytes int64) {
		if devs[dev] == nil {
			devs[dev] = &SwitchCounters{}
		}
		devs[dev].Add(ClassifyNintendo(domain), bytes)
	}
	// Device 1: a Switch — 80% of bytes to Nintendo.
	add(1, "npns.srv.nintendo.net", 400)
	add(1, "atum.hac.lp1.d4c.nintendo.net", 400)
	add(1, "youtube.com", 200)
	// Device 2: a laptop that launched the eshop page once.
	add(2, "accounts.nintendo.com", 100)
	add(2, "netflix.com", 5000)
	// Device 3: exactly at threshold.
	add(3, "nex.nintendo.net", 500)
	add(3, "google.com", 500)

	if !devs[1].IsSwitch() {
		t.Error("device 1 should be a Switch")
	}
	if devs[2].IsSwitch() {
		t.Error("device 2 misdetected")
	}
	if !devs[3].IsSwitch() {
		t.Error("device 3 at exactly 50% should match (≥ threshold)")
	}
	var unseen SwitchCounters
	if unseen.IsSwitch() {
		t.Error("device without bytes (zero counters) matched")
	}
	if got := devs[1].Gameplay; got != 400 {
		t.Errorf("gameplay bytes = %d, want 400 (update traffic filtered)", got)
	}
	if got := devs[1].Nintendo; got != 800 {
		t.Errorf("nintendo bytes = %d, want 800", got)
	}
}

func BenchmarkMatcherApp(b *testing.B) {
	m := testMatcher()
	server := netip.MustParseAddr("198.51.100.1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.App("static.xx.fbcdn.net", server)
	}
}

func BenchmarkStitcherAdd(b *testing.B) {
	st := NewStitcher(0, func(Session) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Add(uint64(i%1000), AppTikTok, "tiktok.com", t0.Add(time.Duration(i)*time.Second), time.Minute, 100)
	}
}

func TestVisitOpenMatchesFlushWithoutClosing(t *testing.T) {
	out, emit := collectSessions()
	st := NewStitcher(0, emit)
	t0 := time.Date(2020, 3, 10, 12, 0, 0, 0, time.UTC)
	// Two open sessions on different devices; the Facebook one touched
	// Instagram-only content, so both VisitOpen and Flush must emit it as
	// Instagram.
	st.Add(2, AppTikTok, "tiktokcdn.com", t0, 5*time.Minute, 100)
	st.Add(1, AppFacebook, "facebook.com", t0, 5*time.Minute, 10)
	st.Add(1, AppFacebook, "cdninstagram.com", t0.Add(time.Minute), time.Minute, 20)

	var visited []Session
	st.VisitOpen(func(s Session) { visited = append(visited, s) })

	if len(*out) != 0 {
		t.Fatalf("VisitOpen emitted %d sessions through the stitcher; want 0", len(*out))
	}
	if st.Open() != 2 {
		t.Fatalf("VisitOpen closed sessions: %d open, want 2", st.Open())
	}

	// VisitOpen again after extending a session: still non-destructive,
	// the extension visible.
	st.Add(2, AppTikTok, "tiktokcdn.com", t0.Add(4*time.Minute), 10*time.Minute, 50)
	var again []Session
	st.VisitOpen(func(s Session) { again = append(again, s) })
	if len(again) != 2 || again[1].Flows != 2 {
		t.Fatalf("second VisitOpen = %+v; want 2 sessions with extended TikTok", again)
	}

	st.Flush()
	if len(*out) != 2 {
		t.Fatalf("Flush emitted %d sessions, want 2", len(*out))
	}
	for i, s := range *out {
		if s != again[i] {
			t.Fatalf("Flush session %d = %+v, VisitOpen saw %+v", i, s, again[i])
		}
	}
	if (*out)[0].App != AppInstagram {
		t.Fatalf("disambiguation: got %q, want %q", (*out)[0].App, AppInstagram)
	}
}

// TestTableRows pins the canonical serialization the stage cache digests:
// stable across calls, one "table\tdomain" row per signature entry in
// declaration order, covering every table the matcher is built from.
func TestTableRows(t *testing.T) {
	rows := TableRows()
	if len(rows) == 0 {
		t.Fatal("no signature rows")
	}
	again := TableRows()
	if len(again) != len(rows) {
		t.Fatalf("TableRows is unstable: %d then %d rows", len(rows), len(again))
	}
	tables := make(map[string]bool)
	for i, row := range rows {
		if row != again[i] {
			t.Fatalf("TableRows is unstable at row %d: %q vs %q", i, row, again[i])
		}
		name, domain, ok := strings.Cut(row, "\t")
		if !ok || name == "" || domain == "" {
			t.Fatalf("row %d = %q, want table\\tdomain", i, row)
		}
		tables[name] = true
	}
	for _, want := range []string{"zoom", "facebook-shared", "instagram-only", "tiktok", "steam", "nintendo-gameplay", "nintendo-other"} {
		if !tables[want] {
			t.Errorf("no rows for table %q", want)
		}
	}
	if rows[0] != "zoom\tzoom.us" {
		t.Errorf("first row = %q, want the zoom table head (declaration order)", rows[0])
	}
}
