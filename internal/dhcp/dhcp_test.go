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
