package core

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dhcp"
	"repro/internal/packet"
)

var leaseEpoch = time.Date(2020, time.February, 1, 0, 0, 0, 0, time.UTC)

func leaseMAC(i int) packet.MAC {
	return packet.MAC{0x00, 0x16, 0xb9, byte(i >> 16), byte(i >> 8), byte(i)}
}

func newLeaseServer(t *testing.T, prefix string, lease time.Duration) *dhcp.Server {
	t.Helper()
	s, err := dhcp.NewServer(netip.MustParsePrefix(prefix), lease)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// historyIndex folds a server's binding history (grant order, so starts
// are non-decreasing) into a lease index.
func historyIndex(hist []dhcp.Lease) leaseIndex {
	idx := make(leaseIndex)
	for _, l := range hist {
		idx.observe(l)
	}
	return idx
}

func TestLeaseIndexAttribution(t *testing.T) {
	s := newLeaseServer(t, "10.20.0.0/24", time.Hour)
	// Device 1 holds an address, releases it; device 2 gets it later.
	l1, _ := s.Request(leaseMAC(1), leaseEpoch)
	s.Release(leaseMAC(1), leaseEpoch.Add(20*time.Minute))
	var l2 dhcp.Lease
	for {
		// Drive requests until device 2 lands on device 1's old address.
		var err error
		l2, err = s.Request(leaseMAC(2), leaseEpoch.Add(30*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if l2.Addr == l1.Addr {
			break
		}
		s.Release(leaseMAC(2), leaseEpoch.Add(30*time.Minute))
	}

	idx := historyIndex(s.History())
	if got, ok := idx.lookup(l1.Addr, leaseEpoch.Add(5*time.Minute)); !ok || got != leaseMAC(1) {
		t.Errorf("early lookup = %v, %v", got, ok)
	}
	if got, ok := idx.lookup(l1.Addr, leaseEpoch.Add(40*time.Minute)); !ok || got != leaseMAC(2) {
		t.Errorf("late lookup = %v, %v", got, ok)
	}
	// Gap between the two bindings attributes to nobody.
	if _, ok := idx.lookup(l1.Addr, leaseEpoch.Add(25*time.Minute)); ok {
		t.Error("gap lookup succeeded")
	}
	// Unknown address.
	if _, ok := idx.lookup(netip.MustParseAddr("10.99.0.1"), leaseEpoch); ok {
		t.Error("unknown address lookup succeeded")
	}
}

func TestLeaseIndexBoundaries(t *testing.T) {
	l := dhcp.Lease{MAC: leaseMAC(7), Addr: netip.MustParseAddr("10.0.0.5"), Start: leaseEpoch, End: leaseEpoch.Add(time.Hour)}
	idx := historyIndex([]dhcp.Lease{l})
	if _, ok := idx.lookup(l.Addr, leaseEpoch.Add(-time.Nanosecond)); ok {
		t.Error("before start matched")
	}
	if _, ok := idx.lookup(l.Addr, leaseEpoch); !ok {
		t.Error("start instant not matched")
	}
	if _, ok := idx.lookup(l.Addr, leaseEpoch.Add(time.Hour)); ok {
		t.Error("end instant matched (should be exclusive)")
	}
}

func TestLeaseIndexMergesSameMACOverlap(t *testing.T) {
	addr := netip.MustParseAddr("10.0.0.5")
	idx := historyIndex([]dhcp.Lease{
		{MAC: leaseMAC(1), Addr: addr, Start: leaseEpoch, End: leaseEpoch.Add(time.Hour)},
		{MAC: leaseMAC(1), Addr: addr, Start: leaseEpoch.Add(30 * time.Minute), End: leaseEpoch.Add(2 * time.Hour)},
	})
	if got, ok := idx.lookup(addr, leaseEpoch.Add(90*time.Minute)); !ok || got != leaseMAC(1) {
		t.Errorf("merged lookup = %v, %v", got, ok)
	}
	// The renewal extends the episode back to its original start.
	if got, ok := idx.lookup(addr, leaseEpoch.Add(10*time.Minute)); !ok || got != leaseMAC(1) {
		t.Errorf("episode start lookup = %v, %v", got, ok)
	}
}

func TestServerChurnNormalizesConsistently(t *testing.T) {
	// Heavy churn in a small pool: every flow-time lookup must agree with
	// the server's ground truth.
	s := newLeaseServer(t, "10.30.0.0/26", 45*time.Minute)
	type obs struct {
		mac  packet.MAC
		addr netip.Addr
		t    time.Time
	}
	var truth []obs
	now := leaseEpoch
	for i := 0; i < 3000; i++ {
		now = now.Add(time.Duration(1+i%7) * time.Minute)
		m := leaseMAC(i % 90)
		l, err := s.Request(m, now)
		if errors.Is(err, dhcp.ErrPoolExhausted) {
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
	idx := historyIndex(s.History())
	misses := 0
	for _, o := range truth {
		got, ok := idx.lookup(o.addr, o.t)
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
