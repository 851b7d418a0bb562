package dhcp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"repro/internal/packet"
)

// refIndex mirrors core's private leaseIndex exactly: in-place renewal
// coalescing, newest-first lookup with the early-break. The store must
// agree with this reference at every mutation prefix.
type refIndex map[netip.Addr][]Lease

func (idx refIndex) observe(l Lease) {
	spans := idx[l.Addr]
	if n := len(spans); n > 0 && spans[n-1].MAC == l.MAC && !l.Start.After(spans[n-1].End) {
		if l.End.After(spans[n-1].End) {
			spans[n-1].End = l.End
		}
		idx[l.Addr] = spans
		return
	}
	idx[l.Addr] = append(spans, l)
}

func (idx refIndex) lookup(addr netip.Addr, t time.Time) (packet.MAC, bool) {
	spans := idx[addr]
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Contains(t) {
			return spans[i].MAC, true
		}
		if t.After(spans[i].End) {
			break
		}
	}
	return packet.MAC{}, false
}

func storeTestMAC(i int) packet.MAC {
	return packet.MAC{0x02, 0x00, 0x00, 0x00, byte(i >> 8), byte(i)}
}

func storeTestAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
}

// TestLeaseStorePrefixEquivalence drives a randomized lease schedule
// (fresh bindings, renewals that extend, renewals fully covered,
// rebindings to a new device, overlapping rebindings) through both the
// store and the reference index in lockstep, checking after every
// mutation that LookupAt pinned to the current sequence number agrees
// with the reference at a spread of probe times. This is the exactness
// contract of the snapshot join: a reader pinned to seq s sees precisely
// the table a single pipeline held after mutation s.
func TestLeaseStorePrefixEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store := NewLeaseStore()
	ref := make(refIndex)
	base := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

	const addrs = 8
	cursor := base
	var seq uint64
	for step := 0; step < 4000; step++ {
		cursor = cursor.Add(time.Duration(rng.Intn(180)) * time.Second)
		a := rng.Intn(addrs)
		addr := storeTestAddr(a)
		var l Lease
		switch rng.Intn(4) {
		case 0: // fresh or rebinding to a random device
			l = Lease{MAC: storeTestMAC(rng.Intn(5)), Addr: addr,
				Start: cursor, End: cursor.Add(time.Duration(1+rng.Intn(120)) * time.Minute)}
		case 1: // renewal attempt by the current holder (may extend or be covered)
			mac, ok := ref.lookup(addr, cursor)
			if !ok {
				mac = storeTestMAC(rng.Intn(5))
			}
			l = Lease{MAC: mac, Addr: addr,
				Start: cursor, End: cursor.Add(time.Duration(rng.Intn(90)) * time.Minute)}
		case 2: // short overlapping lease by another device
			l = Lease{MAC: storeTestMAC(5 + rng.Intn(3)), Addr: addr,
				Start: cursor, End: cursor.Add(time.Duration(1+rng.Intn(10)) * time.Minute)}
		default: // zero-length / instantly expiring edge
			l = Lease{MAC: storeTestMAC(rng.Intn(8)), Addr: addr, Start: cursor, End: cursor}
		}
		seq++
		store.Observe(l, seq)
		ref.observe(l)

		// Probe around the mutation: before, inside, at boundaries, after.
		probes := []time.Time{
			cursor.Add(-time.Hour), cursor.Add(-time.Second), cursor,
			l.End.Add(-time.Second), l.End, l.End.Add(time.Second),
			cursor.Add(time.Duration(rng.Intn(7200)-3600) * time.Second),
		}
		for _, pt := range probes {
			for probeAddr := 0; probeAddr < addrs; probeAddr++ {
				pa := storeTestAddr(probeAddr)
				wantMAC, wantOK := ref.lookup(pa, pt)
				gotMAC, gotOK := store.LookupAt(pa, pt, seq)
				if wantOK != gotOK || wantMAC != gotMAC {
					t.Fatalf("step %d seq %d addr %v t %v: store (%v,%v) != ref (%v,%v)",
						step, seq, pa, pt, gotMAC, gotOK, wantMAC, wantOK)
				}
			}
		}
	}
	if store.RetainedBytes() == 0 {
		t.Error("retained-bytes gauge stayed zero")
	}
	if len(store.Addrs()) != addrs {
		t.Errorf("store indexed %d addrs, want %d", len(store.Addrs()), addrs)
	}
}

// TestLeaseStoreHistoricPins pins lookups to past sequence numbers and
// checks they keep answering from the historic prefix even after later
// mutations rebind the address — the property that preserves
// lease-before-flow ordering without replaying leases per shard.
func TestLeaseStoreHistoricPins(t *testing.T) {
	store := NewLeaseStore()
	addr := storeTestAddr(1)
	base := time.Date(2020, 3, 1, 12, 0, 0, 0, time.UTC)
	macA, macB := storeTestMAC(1), storeTestMAC(2)

	store.Observe(Lease{MAC: macA, Addr: addr, Start: base, End: base.Add(time.Hour)}, 1)
	// Renewal extends the episode.
	store.Observe(Lease{MAC: macA, Addr: addr, Start: base.Add(30 * time.Minute), End: base.Add(2 * time.Hour)}, 2)
	// Rebinding to a different device after expiry.
	store.Observe(Lease{MAC: macB, Addr: addr, Start: base.Add(3 * time.Hour), End: base.Add(4 * time.Hour)}, 3)

	probe := base.Add(90 * time.Minute) // inside the renewal extension only
	if _, ok := store.LookupAt(addr, probe, 1); ok {
		t.Error("pin 1: renewal extension visible before its mutation")
	}
	if mac, ok := store.LookupAt(addr, probe, 2); !ok || mac != macA {
		t.Errorf("pin 2: got (%v,%v), want (%v,true)", mac, ok, macA)
	}
	late := base.Add(210 * time.Minute)
	if _, ok := store.LookupAt(addr, late, 2); ok {
		t.Error("pin 2: rebinding visible before its mutation")
	}
	if mac, ok := store.LookupAt(addr, late, 3); !ok || mac != macB {
		t.Errorf("pin 3: got (%v,%v), want (%v,true)", mac, ok, macB)
	}
	// A pin far past the last mutation sees the full table.
	if mac, ok := store.LookupAt(addr, late, ^uint64(0)); !ok || mac != macB {
		t.Errorf("max pin: got (%v,%v), want (%v,true)", mac, ok, macB)
	}
}

// TestLeaseStoreConcurrentReaders shares the store the way the sharded
// route stage does: the writer folds a run of bindings in, then parallel
// readers resolve pinned lookups while the writer waits, with channel
// hand-offs between the turns. Run under -race this proves readers may
// share the store between writes; the determinism check proves a reader
// pinned at a passed watermark always gets the same answer no matter how
// far the writer has advanced.
func TestLeaseStoreConcurrentReaders(t *testing.T) {
	store := NewLeaseStore()
	base := time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC)
	const (
		addrs   = 4
		muts    = 5000
		run     = 250
		readers = 4
	)
	type key struct {
		addr netip.Addr
		t    int64
		pin  uint64
	}
	turns := make([]chan uint64, readers)
	done := make(chan struct{})
	for r := range turns {
		turns[r] = make(chan uint64)
		go func(r int) {
			rng := rand.New(rand.NewSource(int64(100 + r)))
			seen := make(map[key]packet.MAC)
			for watermark := range turns[r] {
				for k := 0; k < 500; k++ {
					pin := 1 + uint64(rng.Int63n(int64(watermark)))
					addr := storeTestAddr(rng.Intn(addrs))
					pt := base.Add(time.Duration(rng.Int63n(int64(muts))) * time.Second)
					mac, ok := store.LookupAt(addr, pt, pin)
					if !ok {
						mac = packet.MAC{}
					}
					k := key{addr: addr, t: pt.Unix(), pin: pin}
					if prev, dup := seen[k]; !dup {
						seen[k] = mac
					} else if prev != mac {
						t.Errorf("pinned lookup changed: %v@%d pin %d: %v then %v",
							addr, k.t, pin, prev, mac)
					}
				}
				done <- struct{}{}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(42))
	cursor := base
	for i := 1; i <= muts; i++ {
		cursor = cursor.Add(time.Duration(rng.Intn(3)) * time.Second)
		store.Observe(Lease{
			MAC:   storeTestMAC(rng.Intn(6)),
			Addr:  storeTestAddr(rng.Intn(addrs)),
			Start: cursor,
			End:   cursor.Add(time.Duration(1+rng.Intn(30)) * time.Minute),
		}, uint64(i))
		if i%run == 0 {
			for _, turn := range turns {
				turn <- uint64(i)
			}
			for range turns {
				<-done
			}
		}
	}
	for _, turn := range turns {
		close(turn)
	}
}

// TestLeaseStoreAddrsSorted pins the determinism contract of the only
// map-iterating accessor: the addresses come back sorted, never in map
// iteration order.
func TestLeaseStoreAddrsSorted(t *testing.T) {
	store := NewLeaseStore()
	base := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 64; i++ {
		store.Observe(Lease{MAC: storeTestMAC(i), Addr: storeTestAddr(63 - i),
			Start: base, End: base.Add(time.Hour)}, uint64(i+1))
	}
	addrs := store.Addrs()
	if len(addrs) != 64 {
		t.Fatalf("got %d addrs, want 64", len(addrs))
	}
	for i := 1; i < len(addrs); i++ {
		if !addrs[i-1].Less(addrs[i]) {
			t.Fatalf("addrs not sorted at %d: %v >= %v", i, addrs[i-1], addrs[i])
		}
	}
}

var benchSinkMAC packet.MAC

func BenchmarkLeaseStoreLookupAt(b *testing.B) {
	store := NewLeaseStore()
	base := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(3))
	cursor := base
	const addrs = 256
	for i := 1; i <= 20000; i++ {
		cursor = cursor.Add(time.Duration(rng.Intn(10)) * time.Second)
		store.Observe(Lease{MAC: storeTestMAC(rng.Intn(512)), Addr: storeTestAddr(rng.Intn(addrs)),
			Start: cursor, End: cursor.Add(4 * time.Hour)}, uint64(i))
	}
	span := cursor.Sub(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := base.Add(time.Duration(i%int(span/time.Second)) * time.Second)
		mac, _ := store.LookupAt(storeTestAddr(i%addrs), pt, 20000)
		benchSinkMAC = mac
	}
}

func ExampleLeaseStore() {
	store := NewLeaseStore()
	addr := netip.MustParseAddr("10.1.0.9")
	mac := packet.MustParseMAC("02:00:00:00:00:01")
	start := time.Date(2020, 2, 1, 9, 0, 0, 0, time.UTC)
	store.Observe(Lease{MAC: mac, Addr: addr, Start: start, End: start.Add(time.Hour)}, 1)
	got, ok := store.LookupAt(addr, start.Add(30*time.Minute), 1)
	fmt.Println(got, ok)
	_, early := store.LookupAt(addr, start.Add(30*time.Minute), 0)
	fmt.Println(early)
	// Output:
	// 02:00:00:00:00:01 true
	// false
}
