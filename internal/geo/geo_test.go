package geo

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/universe"
)

func testDB(t testing.TB) (*DB, *universe.Registry) {
	t.Helper()
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	return FromRegistry(reg), reg
}

func TestLookupEveryPlannedAddress(t *testing.T) {
	db, reg := testDB(t)
	if db.Size() == 0 {
		t.Fatal("empty database")
	}
	for _, s := range reg.Services() {
		for _, d := range s.Domains {
			for _, ip := range reg.DomainIPs(d) {
				e, ok := db.Lookup(ip)
				if !ok {
					t.Fatalf("no geo entry for %v (%s)", ip, d)
				}
				info, _ := reg.LookupAddr(ip)
				if e.US != info.Region.US {
					t.Fatalf("geo US=%v for %v, region %s says %v", e.US, ip, info.Region.Code, info.Region.US)
				}
			}
		}
	}
}

func TestLookupIPv6Addresses(t *testing.T) {
	db, reg := testDB(t)
	for _, domain := range []string{"facebook.com", "hdslb.com", "naver.com"} {
		ip, ok := reg.ResolveIPv6(domain, 1)
		if !ok {
			t.Fatalf("no AAAA for %s", domain)
		}
		e, ok := db.Lookup(ip)
		if !ok {
			t.Fatalf("geo DB misses AAAA %v (%s)", ip, domain)
		}
		info, _ := reg.LookupAddr(ip)
		if e.US != info.Region.US {
			t.Errorf("%s v6 geo US=%v, region says %v", domain, e.US, info.Region.US)
		}
	}
}

func TestLookupMisses(t *testing.T) {
	db, _ := testDB(t)
	for _, s := range []string{"10.1.2.3", "192.0.2.1", "8.8.8.8", "0.0.0.1", "255.255.255.254"} {
		if e, ok := db.Lookup(netip.MustParseAddr(s)); ok {
			t.Errorf("unplanned address %s matched %s", s, e.Owner)
		}
	}
}

func TestJitterBounded(t *testing.T) {
	db, _ := testDB(t)
	for _, e := range db.entries {
		if math.Abs(e.Loc.Lat) > 90 || math.Abs(e.Loc.Lon) > 180 {
			t.Errorf("entry %s has invalid location %+v", e.Owner, e.Loc)
		}
	}
}

func TestUSContainment(t *testing.T) {
	cases := []struct {
		name string
		loc  Location
		want bool
	}{
		{"San Diego", Location{32.72, -117.16}, true},
		{"San Jose", Location{37.35, -121.95}, true},
		{"Ashburn VA", Location{39.04, -77.49}, true},
		{"Kansas City", Location{39.10, -94.58}, true},
		{"Anchorage", Location{61.22, -149.90}, true},
		{"Honolulu", Location{21.31, -157.86}, true},
		{"Shanghai", Location{31.23, 121.47}, false},
		{"Seoul", Location{37.57, 126.98}, false},
		{"Tokyo", Location{35.68, 139.69}, false},
		{"Frankfurt", Location{50.11, 8.68}, false},
		{"Mumbai", Location{19.08, 72.88}, false},
		{"São Paulo", Location{-23.55, -46.63}, false},
		{"Mexico City", Location{19.43, -99.13}, false},
		{"Toronto", Location{43.70, -79.42}, false},
		{"Vancouver", Location{49.28, -123.12}, false},
		{"Tijuana", Location{32.51, -117.04}, false},
		{"mid-Atlantic", Location{35.0, -50.0}, false},
		{"mid-Pacific", Location{30.0, -150.0}, false},
	}
	for _, c := range cases {
		if got := InUS(c.loc); got != c.want {
			t.Errorf("InUS(%s %+v) = %v, want %v", c.name, c.loc, got, c.want)
		}
	}
}

func TestRegionCentersClassify(t *testing.T) {
	// Every region's center must classify according to its US flag, or the
	// midpoint test would be meaningless.
	for _, r := range universe.Regions {
		if got := InUS(Location{r.Lat, r.Lon}); got != r.US {
			t.Errorf("region %s center classifies InUS=%v, want %v", r.Code, got, r.US)
		}
	}
}

func TestMidpointSinglePoint(t *testing.T) {
	var m Midpoint
	m.Add(Location{32.88, -117.23}, 100)
	loc, ok := m.Result()
	if !ok {
		t.Fatal("no result")
	}
	if math.Abs(loc.Lat-32.88) > 1e-9 || math.Abs(loc.Lon+117.23) > 1e-9 {
		t.Errorf("midpoint of one point = %+v", loc)
	}
}

func TestMidpointWeighting(t *testing.T) {
	// Heavy weight on Shanghai, light on San Diego → midpoint nearer
	// Shanghai (and outside the US).
	var m Midpoint
	m.Add(Location{31.23, 121.47}, 1000)
	m.Add(Location{32.88, -117.23}, 10)
	loc, ok := m.Result()
	if !ok {
		t.Fatal("no result")
	}
	if InUS(loc) {
		t.Errorf("midpoint %+v should be outside the US", loc)
	}
	// Flip weights → inside the US.
	var m2 Midpoint
	m2.Add(Location{31.23, 121.47}, 10)
	m2.Add(Location{32.88, -117.23}, 1000)
	loc2, _ := m2.Result()
	if !InUS(loc2) {
		t.Errorf("midpoint %+v should be inside the US", loc2)
	}
}

func TestMidpointMixPullsInland(t *testing.T) {
	// The conservativeness mechanism: a balanced US/China mix lands the
	// midpoint in the north Pacific (not US), while a US-dominated mix —
	// spanning both US coasts, as real browsing does — pulls it inland.
	mix := func(usW, cnW float64) bool {
		var m Midpoint
		m.Add(Location{37.35, -121.95}, usW/2) // US west coast
		m.Add(Location{39.04, -77.49}, usW/2)  // US east coast
		m.Add(Location{31.23, 121.47}, cnW)    // Shanghai
		loc, ok := m.Result()
		return ok && InUS(loc)
	}
	if mix(1, 1) {
		t.Error("50/50 split should not be domestic (falls in Pacific)")
	}
	if !mix(6, 1) {
		t.Error("heavily-US mix should be domestic")
	}
}

func TestMidpointDegenerate(t *testing.T) {
	var m Midpoint
	if _, ok := m.Result(); ok {
		t.Error("empty midpoint produced result")
	}
	// Antipodal cancellation.
	m.Add(Location{0, 0}, 1)
	m.Add(Location{0, 180}, 1)
	if _, ok := m.Result(); ok {
		t.Error("cancelled midpoint produced result")
	}
	// Invalid weights ignored.
	var m2 Midpoint
	m2.Add(Location{10, 10}, 0)
	m2.Add(Location{10, 10}, -5)
	m2.Add(Location{10, 10}, math.NaN())
	m2.Add(Location{10, 10}, math.Inf(1))
	if m2.N != 0 {
		t.Errorf("invalid weights accepted: n=%d", m2.N)
	}
}

func TestMidpointInvariantToScale(t *testing.T) {
	f := func(w1, w2 uint16) bool {
		a, b := float64(w1)+1, float64(w2)+1
		var m1, m2 Midpoint
		m1.Add(Location{40, -100}, a)
		m1.Add(Location{35, 135}, b)
		m2.Add(Location{40, -100}, a*1000)
		m2.Add(Location{35, 135}, b*1000)
		l1, ok1 := m1.Result()
		l2, ok2 := m2.Result()
		if !ok1 || !ok2 {
			return false
		}
		return math.Abs(l1.Lat-l2.Lat) < 1e-9 && math.Abs(l1.Lon-l2.Lon) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// flowTo is one flow of a test device: its server and byte count.
type flowTo struct {
	server netip.Addr
	bytes  int64
}

// fold is a device's midpoint over the given flows, each folded when the
// classifier accepts its server.
func fold(c *Classifier, flows ...flowTo) *Midpoint {
	var m Midpoint
	for _, f := range flows {
		if p, ok := c.Point(f.server); ok {
			m.AddPoint(p, float64(f.bytes))
		}
	}
	return &m
}

func TestClassifierEndToEnd(t *testing.T) {
	db, reg := testDB(t)
	c := NewClassifier(db)

	fb, _ := reg.ResolveIP("facebook.com", 1)
	bili, _ := reg.ResolveIP("bilibili.com", 1)
	wechat, _ := reg.ResolveIP("weixin.qq.com", 1)

	// Device 1: overwhelmingly US traffic → domestic.
	dev1 := fold(c, flowTo{fb, 1 << 30}, flowTo{bili, 1 << 20})
	// Device 2: overwhelmingly Chinese traffic → international.
	dev2 := fold(c, flowTo{bili, 1 << 30}, flowTo{wechat, 1 << 30}, flowTo{fb, 1 << 20})

	if got := dev1.Classify(); got != Domestic {
		t.Errorf("device 1 = %v", got)
	}
	if got := dev2.Classify(); got != International {
		t.Errorf("device 2 = %v", got)
	}
	// Device 3: nothing — the zero midpoint.
	var dev3 Midpoint
	if got := dev3.Classify(); got != Unknown {
		t.Errorf("device 3 (zero) = %v", got)
	}
}

func TestClassifierConservativeOnMixedTraffic(t *testing.T) {
	// An international student who also watches Netflix (US) can land
	// inside the US: the paper calls the method conservative. Verify the
	// mechanism exists: moderate US admixture flips the label.
	db, reg := testDB(t)
	c := NewClassifier(db)
	bili, _ := reg.ResolveIP("bilibili.com", 1)
	ytb, _ := reg.ResolveIP("googlevideo.com", 1) // US west
	hulu, _ := reg.ResolveIP("hulustream.com", 1) // US east
	if got := fold(c, flowTo{bili, 1 << 28}, flowTo{ytb, 3 << 28}, flowTo{hulu, 3 << 28}).Classify(); got != Domestic {
		t.Errorf("mixed-traffic device = %v, want Domestic (conservative undercount)", got)
	}
}

func TestClassifierCDNExclusion(t *testing.T) {
	db, reg := testDB(t)
	// nytimes is hosted on fastly (not excluded); cnn on akamai
	// (excluded). A device talking only to akamai must stay Unknown.
	c := NewClassifier(db)
	cnn, _ := reg.ResolveIP("cnn.com", 1)
	if _, ok := c.Point(cnn); ok {
		t.Error("akamai server resolved to a point with the CDN exclusion on")
	}
	if got := fold(c, flowTo{cnn, 1 << 30}).Classify(); got != Unknown {
		t.Errorf("akamai-only device = %v, want Unknown (CDN excluded)", got)
	}
	// Ablation: including CDNs classifies it domestic (akamai is US).
	c2 := NewClassifier(db)
	c2.IncludeCDNs = true
	if got := fold(c2, flowTo{cnn, 1 << 30}).Classify(); got != Domestic {
		t.Errorf("ablation = %v, want Domestic", got)
	}
}

func TestClassificationString(t *testing.T) {
	if Domestic.String() != "domestic" || International.String() != "international" || Unknown.String() != "unknown" {
		t.Error("label names wrong")
	}
}

func BenchmarkLookup(b *testing.B) {
	db, reg := testDB(b)
	ip, _ := reg.ResolveIP("facebook.com", 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Lookup(ip)
	}
}

func BenchmarkMidpointAdd(b *testing.B) {
	var m Midpoint
	loc := Location{31.23, 121.47}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Add(loc, 1500)
	}
}
