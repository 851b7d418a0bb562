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
	var visitor, resident DayBitmap
	for d := campus.Day(0); d < 5; d++ {
		visitor.Set(d)
	}
	for d := campus.Day(0); d < 20; d++ {
		resident.Set(d)
	}
	if visitor.Resident() {
		t.Error("5-day visitor passed the filter")
	}
	if !resident.Resident() {
		t.Error("20-day resident failed the filter")
	}
	if visitor.count() != 5 || resident.count() != 20 {
		t.Errorf("days = %d, %d", visitor.count(), resident.count())
	}
	var unseen DayBitmap
	if unseen.Resident() || unseen.PostShutdownUser() {
		t.Error("a device never seen (zero bitmap) passed the filter")
	}
}

func TestPresenceIdempotent(t *testing.T) {
	var b DayBitmap
	for i := 0; i < 100; i++ {
		b.Set(campus.Day(3))
	}
	if b.count() != 1 {
		t.Errorf("count = %d after repeated observations", b.count())
	}
	if b != (DayBitmap{1 << 3, 0}) {
		t.Errorf("bitmap = %x, want day 3 only", b)
	}
}

func TestPostShutdownUser(t *testing.T) {
	var a, b, c, d DayBitmap
	breakDay, _ := campus.DayOf(campus.BreakStart)

	// Device A: resident who left before break — not post-shutdown.
	for day := campus.Day(0); day < breakDay-1; day++ {
		a.Set(day)
	}
	// Device B: resident present through May — post-shutdown.
	for day := campus.Day(0); day < campus.NumDays; day += 2 {
		b.Set(day)
	}
	// Device C: appears only after break, 20 days — post-shutdown.
	for day := breakDay; day < breakDay+20; day++ {
		c.Set(day)
	}
	// Device D: brief visitor after break — filtered.
	for day := breakDay; day < breakDay+3; day++ {
		d.Set(day)
	}
	if a.PostShutdownUser() {
		t.Error("pre-break leaver counted as post-shutdown")
	}
	if !b.PostShutdownUser() {
		t.Error("staying resident not post-shutdown")
	}
	if !c.PostShutdownUser() {
		t.Error("late-arriving resident not post-shutdown")
	}
	if d.PostShutdownUser() {
		t.Error("post-break visitor counted")
	}
}

func TestPresenceOutOfRangeDaysIgnored(t *testing.T) {
	var b DayBitmap
	b.Set(campus.Day(-1))
	b.Set(campus.Day(campus.NumDays))
	b.Set(campus.Day(1000))
	if b.count() != 0 {
		t.Errorf("out-of-range days counted: %d", b.count())
	}
}

func TestDayBitmapProperty(t *testing.T) {
	f := func(days []uint8) bool {
		var b DayBitmap
		want := map[campus.Day]bool{}
		for _, raw := range days {
			d := campus.Day(int(raw) % campus.NumDays)
			b.Set(d)
			want[d] = true
		}
		if b.count() != len(want) {
			return false
		}
		for d := campus.Day(0); d < campus.NumDays; d++ {
			if b[d/64]>>(uint(d)%64)&1 == 1 != want[d] {
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
	days := make([]DayBitmap, 30000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		days[i%len(days)].Set(campus.Day(i % campus.NumDays))
	}
}
