package dhcp

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/packet"
)

var epoch = time.Date(2020, time.February, 1, 0, 0, 0, 0, time.UTC)

func mac(i int) packet.MAC {
	return packet.MAC{0x00, 0x16, 0xb9, byte(i >> 16), byte(i >> 8), byte(i)}
}

func newTestServer(t *testing.T, prefix string, lease time.Duration) *Server {
	t.Helper()
	s, err := NewServer(netip.MustParsePrefix(prefix), lease)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServerAssignsDistinctAddrs(t *testing.T) {
	s := newTestServer(t, "10.10.0.0/24", time.Hour)
	seen := map[netip.Addr]bool{}
	for i := 0; i < 50; i++ {
		l, err := s.Request(mac(i), epoch)
		if err != nil {
			t.Fatal(err)
		}
		if seen[l.Addr] {
			t.Fatalf("address %v assigned twice", l.Addr)
		}
		seen[l.Addr] = true
		if l.Addr == netip.MustParseAddr("10.10.0.0") || l.Addr == netip.MustParseAddr("10.10.0.255") {
			t.Fatalf("network/broadcast address %v assigned", l.Addr)
		}
	}
	if s.ActiveCount() != 50 {
		t.Errorf("active = %d", s.ActiveCount())
	}
}

func TestRenewKeepsAddress(t *testing.T) {
	s := newTestServer(t, "10.10.0.0/24", time.Hour)
	l1, _ := s.Request(mac(1), epoch)
	l2, err := s.Request(mac(1), epoch.Add(30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if l1.Addr != l2.Addr {
		t.Errorf("renewal changed address: %v -> %v", l1.Addr, l2.Addr)
	}
	if got := l2.End; !got.Equal(epoch.Add(30*time.Minute + time.Hour)) {
		t.Errorf("renewal end = %v", got)
	}
	// History shows one episode covering both.
	h := s.History()
	if len(h) != 1 {
		t.Fatalf("history has %d episodes", len(h))
	}
	if !h[0].End.Equal(epoch.Add(90 * time.Minute)) {
		t.Errorf("episode end = %v", h[0].End)
	}
}

func TestExpiryAllowsReuse(t *testing.T) {
	s := newTestServer(t, "10.10.0.0/30", 30*time.Minute) // one usable address
	if s.PoolSize() != 2 {
		t.Fatalf("pool size = %d", s.PoolSize())
	}
	// /30 pool: network .0, usable .1 and .2, but .3 is broadcast.
	l1, err := s.Request(mac(1), epoch)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := s.Request(mac(2), epoch)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Addr == l2.Addr {
		t.Fatal("same address to two devices")
	}
	if _, err := s.Request(mac(3), epoch.Add(time.Minute)); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err = %v, want exhausted", err)
	}
	// After expiry the address is reusable by another device.
	l3, err := s.Request(mac(3), epoch.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if l3.Addr != l1.Addr && l3.Addr != l2.Addr {
		t.Errorf("reused address %v not from pool", l3.Addr)
	}
}

func TestReleaseFreesAddress(t *testing.T) {
	s := newTestServer(t, "10.10.0.0/24", time.Hour)
	l1, _ := s.Request(mac(1), epoch)
	s.Release(mac(1), epoch.Add(10*time.Minute))
	if s.ActiveCount() != 0 {
		t.Errorf("active after release = %d", s.ActiveCount())
	}
	h := s.History()
	if len(h) != 1 || !h[0].End.Equal(epoch.Add(10*time.Minute)) {
		t.Errorf("history after release = %+v", h)
	}
	_ = l1
}

func TestBadPools(t *testing.T) {
	for _, p := range []string{"2001:db8::/64", "10.0.0.0/31", "10.0.0.1/32"} {
		if _, err := NewServer(netip.MustParsePrefix(p), time.Hour); err == nil {
			t.Errorf("pool %s accepted", p)
		}
	}
}

func TestNormalizerAttribution(t *testing.T) {
	s := newTestServer(t, "10.20.0.0/24", time.Hour)
	// Device 1 holds an address, releases it; device 2 gets it later.
	l1, _ := s.Request(mac(1), epoch)
	s.Release(mac(1), epoch.Add(20*time.Minute))
	var l2 Lease
	for {
		// Drive requests until device 2 lands on device 1's old address.
		var err error
		l2, err = s.Request(mac(2), epoch.Add(30*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if l2.Addr == l1.Addr {
			break
		}
		s.Release(mac(2), epoch.Add(30*time.Minute))
	}

	n, err := NewNormalizer(s.History())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := n.Lookup(l1.Addr, epoch.Add(5*time.Minute)); !ok || got != mac(1) {
		t.Errorf("early lookup = %v, %v", got, ok)
	}
	if got, ok := n.Lookup(l1.Addr, epoch.Add(40*time.Minute)); !ok || got != mac(2) {
		t.Errorf("late lookup = %v, %v", got, ok)
	}
	// Gap between the two bindings attributes to nobody.
	if _, ok := n.Lookup(l1.Addr, epoch.Add(25*time.Minute)); ok {
		t.Error("gap lookup succeeded")
	}
	// Unknown address.
	if _, ok := n.Lookup(netip.MustParseAddr("10.99.0.1"), epoch); ok {
		t.Error("unknown address lookup succeeded")
	}
}

func TestNormalizerBoundaries(t *testing.T) {
	leases := []Lease{{MAC: mac(7), Addr: netip.MustParseAddr("10.0.0.5"), Start: epoch, End: epoch.Add(time.Hour)}}
	n, err := NewNormalizer(leases)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Lookup(leases[0].Addr, epoch.Add(-time.Nanosecond)); ok {
		t.Error("before start matched")
	}
	if _, ok := n.Lookup(leases[0].Addr, epoch); !ok {
		t.Error("start instant not matched")
	}
	if _, ok := n.Lookup(leases[0].Addr, epoch.Add(time.Hour)); ok {
		t.Error("end instant matched (should be exclusive)")
	}
}

func TestNormalizerRejectsConflicts(t *testing.T) {
	addr := netip.MustParseAddr("10.0.0.5")
	leases := []Lease{
		{MAC: mac(1), Addr: addr, Start: epoch, End: epoch.Add(time.Hour)},
		{MAC: mac(2), Addr: addr, Start: epoch.Add(30 * time.Minute), End: epoch.Add(2 * time.Hour)},
	}
	if _, err := NewNormalizer(leases); err == nil {
		t.Error("overlapping conflicting leases accepted")
	}
}

func TestNormalizerMergesSameMACOverlap(t *testing.T) {
	addr := netip.MustParseAddr("10.0.0.5")
	leases := []Lease{
		{MAC: mac(1), Addr: addr, Start: epoch, End: epoch.Add(time.Hour)},
		{MAC: mac(1), Addr: addr, Start: epoch.Add(30 * time.Minute), End: epoch.Add(2 * time.Hour)},
	}
	n, err := NewNormalizer(leases)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := n.Lookup(addr, epoch.Add(90*time.Minute)); !ok || got != mac(1) {
		t.Errorf("merged lookup = %v, %v", got, ok)
	}
}

func TestNormalizerDropsZeroLength(t *testing.T) {
	addr := netip.MustParseAddr("10.0.0.5")
	n, err := NewNormalizer([]Lease{{MAC: mac(1), Addr: addr, Start: epoch, End: epoch}})
	if err != nil {
		t.Fatal(err)
	}
	if n.Addresses() != 0 {
		t.Error("zero-length lease indexed")
	}
}

func TestServerChurnNormalizesConsistently(t *testing.T) {
	// Heavy churn in a small pool: every flow-time lookup must agree with
	// the server's ground truth.
	s := newTestServer(t, "10.30.0.0/26", 45*time.Minute)
	type obs struct {
		mac  packet.MAC
		addr netip.Addr
		t    time.Time
	}
	var truth []obs
	now := epoch
	for i := 0; i < 3000; i++ {
		now = now.Add(time.Duration(1+i%7) * time.Minute)
		m := mac(i % 90)
		l, err := s.Request(m, now)
		if errors.Is(err, ErrPoolExhausted) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		truth = append(truth, obs{m, l.Addr, now})
		if i%13 == 0 {
			s.Release(m, now.Add(time.Minute))
		}
	}
	n, err := NewNormalizer(s.History())
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	for _, o := range truth {
		got, ok := n.Lookup(o.addr, o.t)
		if !ok {
			misses++
			continue
		}
		if got != o.mac {
			t.Fatalf("lookup(%v,%v) = %v, want %v", o.addr, o.t, got, o.mac)
		}
	}
	if misses > 0 {
		t.Errorf("%d/%d observations unattributed", misses, len(truth))
	}
}

func TestLogRoundTrip(t *testing.T) {
	s := newTestServer(t, "10.40.0.0/24", time.Hour)
	for i := 0; i < 40; i++ {
		s.Request(mac(i), epoch.Add(time.Duration(i)*time.Minute))
	}
	var buf bytes.Buffer
	w := NewLogWriter(&buf)
	for _, l := range s.History() {
		if err := w.Write(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := s.History()
	if len(got) != len(want) {
		t.Fatalf("read %d leases, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].MAC != want[i].MAC || got[i].Addr != want[i].Addr ||
			!got[i].Start.Equal(want[i].Start) || !got[i].End.Equal(want[i].End) {
			t.Errorf("lease %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func BenchmarkNormalizerLookup(b *testing.B) {
	s, _ := NewServer(netip.MustParsePrefix("10.50.0.0/16"), time.Hour)
	now := epoch
	for i := 0; i < 20000; i++ {
		now = now.Add(30 * time.Second)
		s.Request(mac(i%5000), now)
	}
	n, err := NewNormalizer(s.History())
	if err != nil {
		b.Fatal(err)
	}
	hist := s.History()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := hist[i%len(hist)]
		n.Lookup(l.Addr, l.Start)
	}
}

// TestParseMACMatchesPacket holds the in-place MAC decode to
// packet.ParseMAC: the same value, or the same error, on every input.
func TestParseMACMatchesPacket(t *testing.T) {
	for _, s := range []string{
		"aa:bb:cc:dd:ee:ff", "00:1A:2b:3C:4d:5E", "aa:bb:cc:dd:ee:f", "aa:bb:cc:dd:ee:fff",
		"aa-bb-cc-dd-ee-ff", "aa:bb:cc:dd:ee:gg", "aabb:cc:dd:ee:ff:", ":aa:bb:cc:dd:eeff", "", "-",
		"+a:bb:cc:dd:ee:ff", "a:bb:cc:dd:ee:ff0",
	} {
		got, err := parseMAC([]byte(s))
		want, werr := packet.ParseMAC(s)
		if got != want || (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Errorf("parseMAC(%q) = %v, %v; packet.ParseMAC = %v, %v", s, got, err, want, werr)
		}
	}
}
