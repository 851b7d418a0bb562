package anonymize

import (
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/campus"
	"repro/internal/packet"
)

func testKey() []byte {
	return []byte("0123456789abcdef0123456789abcdef")
}

func TestPseudonymizerKeyLength(t *testing.T) {
	if _, err := NewPseudonymizer([]byte("short")); err == nil {
		t.Error("short key accepted")
	}
	if _, err := NewPseudonymizer(testKey()); err != nil {
		t.Error(err)
	}
}

func TestPseudonymStableAndKeyed(t *testing.T) {
	p1, _ := NewPseudonymizer(testKey())
	p2, _ := NewPseudonymizer(testKey())
	p3, _ := NewPseudonymizer([]byte("a different key a different key!"))
	m := packet.MustParseMAC("00:11:22:33:44:55")
	if p1.Device(m) != p2.Device(m) {
		t.Error("same key produced different pseudonyms")
	}
	if p1.Device(m) == p3.Device(m) {
		t.Error("different keys produced same pseudonym")
	}
}

func TestPseudonymInjectiveInPractice(t *testing.T) {
	p, _ := NewPseudonymizer(testKey())
	seen := make(map[DeviceID]packet.MAC)
	for i := 0; i < 100000; i++ {
		m := packet.MAC{byte(i >> 16), byte(i >> 8), byte(i), 0xaa, 0xbb, 0xcc}
		id := p.Device(m)
		if prev, dup := seen[id]; dup {
			t.Fatalf("collision: %v and %v -> %v", prev, m, id)
		}
		seen[id] = m
	}
}

func TestMACAndAddrDomainsSeparated(t *testing.T) {
	// A MAC and an IP with identical raw bytes must not share pseudonyms
	// (domain separation).
	p, _ := NewPseudonymizer(testKey())
	m := packet.MAC{1, 2, 3, 4, 5, 6}
	a := netip.AddrFrom4([4]byte{1, 2, 3, 4})
	if uint64(p.Device(m)) == p.Addr(a) {
		t.Error("cross-domain pseudonym collision")
	}
}

func TestDeviceIDString(t *testing.T) {
	if s := DeviceID(0xdeadbeef).String(); s != "00000000deadbeef" {
		t.Errorf("String = %q", s)
	}
}

func TestRandomPseudonymizerUnlinkable(t *testing.T) {
	p1, err := NewRandomPseudonymizer()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewRandomPseudonymizer()
	if err != nil {
		t.Fatal(err)
	}
	m := packet.MustParseMAC("02:00:00:00:00:01")
	if p1.Device(m) == p2.Device(m) {
		t.Error("two random pseudonymizers agree — keys not random")
	}
}

func TestSuppress(t *testing.T) {
	if !Suppress(0) || !Suppress(MinGroupSize-1) {
		t.Error("small groups not suppressed")
	}
	if Suppress(MinGroupSize) || Suppress(1000) {
		t.Error("large groups suppressed")
	}
}

func TestPresenceVisitorFilter(t *testing.T) {
	tr := NewPresenceTracker()
	visitor := DeviceID(1)
	resident := DeviceID(2)
	for d := campus.Day(0); d < 5; d++ {
		tr.Device(visitor).Set(d)
	}
	for d := campus.Day(0); d < 20; d++ {
		tr.Device(resident).Set(d)
	}
	if tr.Resident(visitor) {
		t.Error("5-day visitor passed the filter")
	}
	if !tr.Resident(resident) {
		t.Error("20-day resident failed the filter")
	}
	if tr.DaysSeen(visitor) != 5 || tr.DaysSeen(resident) != 20 {
		t.Errorf("days = %d, %d", tr.DaysSeen(visitor), tr.DaysSeen(resident))
	}
	if tr.Devices() != 2 || tr.CountResidents() != 1 {
		t.Errorf("devices=%d residents=%d", tr.Devices(), tr.CountResidents())
	}
}

func TestPresenceIdempotent(t *testing.T) {
	tr := NewPresenceTracker()
	for i := 0; i < 100; i++ {
		tr.Device(7).Set(campus.Day(3))
	}
	if tr.DaysSeen(7) != 1 {
		t.Errorf("DaysSeen = %d after repeated observations", tr.DaysSeen(7))
	}
	if !tr.ActiveOn(7, 3) || tr.ActiveOn(7, 4) {
		t.Error("ActiveOn wrong")
	}
}

func TestPostShutdownUser(t *testing.T) {
	tr := NewPresenceTracker()
	breakDay, _ := campus.DayOf(campus.BreakStart)

	// Device A: resident who left before break — not post-shutdown.
	for d := campus.Day(0); d < breakDay-1; d++ {
		tr.Device(1).Set(d)
	}
	// Device B: resident present through May — post-shutdown.
	for d := campus.Day(0); d < campus.NumDays; d += 2 {
		tr.Device(2).Set(d)
	}
	// Device C: appears only after break, 20 days — post-shutdown.
	for d := breakDay; d < breakDay+20; d++ {
		tr.Device(3).Set(d)
	}
	// Device D: brief visitor after break — filtered.
	for d := breakDay; d < breakDay+3; d++ {
		tr.Device(4).Set(d)
	}
	if tr.PostShutdownUser(1) {
		t.Error("pre-break leaver counted as post-shutdown")
	}
	if !tr.PostShutdownUser(2) {
		t.Error("staying resident not post-shutdown")
	}
	if !tr.PostShutdownUser(3) {
		t.Error("late-arriving resident not post-shutdown")
	}
	if tr.PostShutdownUser(4) {
		t.Error("post-break visitor counted")
	}
	if got := tr.CountPostShutdown(); got != 2 {
		t.Errorf("CountPostShutdown = %d, want 2", got)
	}
}

func TestPresenceOutOfRangeDaysIgnored(t *testing.T) {
	tr := NewPresenceTracker()
	tr.Device(9).Set(campus.Day(-1))
	tr.Device(9).Set(campus.Day(campus.NumDays))
	tr.Device(9).Set(campus.Day(1000))
	if tr.DaysSeen(9) != 0 {
		t.Errorf("out-of-range days counted: %d", tr.DaysSeen(9))
	}
}

func TestDayBitmapProperty(t *testing.T) {
	f := func(days []uint8) bool {
		tr := NewPresenceTracker()
		want := map[campus.Day]bool{}
		for _, raw := range days {
			d := campus.Day(int(raw) % campus.NumDays)
			tr.Device(42).Set(d)
			want[d] = true
		}
		if tr.DaysSeen(42) != len(want) {
			return false
		}
		for d := campus.Day(0); d < campus.NumDays; d++ {
			if tr.ActiveOn(42, d) != want[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPseudonymizeDevice(b *testing.B) {
	p, _ := NewPseudonymizer(testKey())
	m := packet.MustParseMAC("00:11:22:33:44:55")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Device(m)
	}
}

func BenchmarkPresenceSet(b *testing.B) {
	tr := NewPresenceTracker()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Device(DeviceID(i % 30000)).Set(campus.Day(i % campus.NumDays))
	}
}
