package dnssim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"
)

func storeTestServer(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)})
}

var storeTestDomains = []string{
	"facebook.com", "fbcdn.net", "steamcontent.com", "zoom.us",
	"netflix.com", "instagram.com", "youtube.com", "canvas.example.edu",
}

// TestLabelStorePrefixEquivalence feeds an identical resolver-log stream
// to a private Labeler and a shared LabelStore in lockstep. After every
// entry, LabelAt pinned to the current sequence number must agree with
// the Labeler for probes before, inside, and beyond the LookAhead window
// — the exactness contract that lets sharded flows see precisely the
// label table a single pipeline held at the same stream position.
func TestLabelStorePrefixEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labeler := NewLabeler()
	store := NewLabelStore(nil)
	base := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

	const servers = 12
	cursor := base
	var seq uint64
	for step := 0; step < 3000; step++ {
		cursor = cursor.Add(time.Duration(rng.Intn(300)) * time.Second)
		e := Entry{
			Time:   cursor,
			Client: netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + rng.Intn(9))}),
			Query:  storeTestDomains[rng.Intn(len(storeTestDomains))],
			Answer: storeTestServer(rng.Intn(servers)),
			TTL:    DefaultTTL,
		}
		seq++
		labeler.Observe(e)
		store.Observe(e, seq)

		probes := []time.Time{
			cursor.Add(-2 * time.Hour), // beyond LookAhead of a fresh span
			cursor.Add(-59 * time.Minute),
			cursor.Add(-time.Second),
			cursor,
			cursor.Add(time.Duration(rng.Intn(3600)) * time.Second),
		}
		for _, pt := range probes {
			for srv := 0; srv < servers; srv++ {
				sa := storeTestServer(srv)
				wantDom, wantOK := labeler.Label(sa, pt)
				gotDom, gotOK := store.LabelAt(sa, pt, seq)
				if wantOK != gotOK || wantDom != gotDom {
					t.Fatalf("step %d seq %d server %v t %v: store (%q,%v) != labeler (%q,%v)",
						step, seq, sa, pt, gotDom, gotOK, wantDom, wantOK)
				}
			}
		}
	}
	if store.Addresses() != labeler.Addresses() {
		t.Errorf("address counts diverge: store %d, labeler %d",
			store.Addresses(), labeler.Addresses())
	}
	if store.RetainedBytes() == 0 {
		t.Error("retained-bytes gauge stayed zero")
	}
}

// TestLabelStoreLookAheadPinning pins the reason per-event pinning exists
// for DNS at all: the LookAhead window makes a *future* resolution
// visible to a flow, so an unpinned reader racing the writer would label
// flows a single pipeline leaves unlabeled. A pin strictly before the
// resolution's sequence number must hide it even though the store
// already holds it.
func TestLabelStoreLookAheadPinning(t *testing.T) {
	store := NewLabelStore(nil)
	server := storeTestServer(1)
	base := time.Date(2020, 3, 1, 12, 0, 0, 0, time.UTC)

	store.Observe(Entry{Time: base.Add(30 * time.Minute), Query: "zoom.us", Answer: server}, 1)

	// Flow at base: the resolution is 30m in the future, inside LookAhead.
	if dom, ok := store.LabelAt(server, base, 1); !ok || dom != "zoom.us" {
		t.Errorf("pin 1: got (%q,%v), want (zoom.us,true) via LookAhead", dom, ok)
	}
	// Same flow pinned before the resolution was broadcast: invisible.
	if dom, ok := store.LabelAt(server, base, 0); ok {
		t.Errorf("pin 0: future resolution leaked: (%q,%v)", dom, ok)
	}

	// Address migrates to a new domain; the old pin keeps the old answer.
	store.Observe(Entry{Time: base.Add(2 * time.Hour), Query: "netflix.com", Answer: server}, 2)
	probe := base.Add(3 * time.Hour)
	if dom, ok := store.LabelAt(server, probe, 1); !ok || dom != "zoom.us" {
		t.Errorf("pin 1 after migration: got (%q,%v), want (zoom.us,true)", dom, ok)
	}
	if dom, ok := store.LabelAt(server, probe, 2); !ok || dom != "netflix.com" {
		t.Errorf("pin 2 after migration: got (%q,%v), want (netflix.com,true)", dom, ok)
	}
}

// TestLabelStoreConcurrentReaders shares the store the way the sharded
// route stage does: the writer folds a run of resolutions in, then
// parallel readers resolve pinned labels while the writer waits, with
// channel hand-offs between the turns. Under -race this proves readers
// may share the store between writes; the repeat-lookup check proves
// pinned answers are immutable once their watermark has passed.
func TestLabelStoreConcurrentReaders(t *testing.T) {
	store := NewLabelStore(nil)
	base := time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC)
	const (
		servers = 6
		muts    = 5000
		run     = 250
		readers = 4
	)
	type key struct {
		srv netip.Addr
		t   int64
		pin uint64
	}
	turns := make([]chan uint64, readers)
	done := make(chan struct{})
	for r := range turns {
		turns[r] = make(chan uint64)
		go func(r int) {
			rng := rand.New(rand.NewSource(int64(200 + r)))
			seen := make(map[key]string)
			for watermark := range turns[r] {
				for k := 0; k < 500; k++ {
					pin := 1 + uint64(rng.Int63n(int64(watermark)))
					srv := storeTestServer(rng.Intn(servers))
					pt := base.Add(time.Duration(rng.Int63n(int64(muts*10))) * time.Second)
					dom, ok := store.LabelAt(srv, pt, pin)
					if !ok {
						dom = "\x00none"
					}
					k := key{srv: srv, t: pt.Unix(), pin: pin}
					if prev, dup := seen[k]; !dup {
						seen[k] = dom
					} else if prev != dom {
						t.Errorf("pinned label changed: %v@%d pin %d: %q then %q",
							srv, k.t, pin, prev, dom)
					}
				}
				done <- struct{}{}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(77))
	cursor := base
	for i := 1; i <= muts; i++ {
		cursor = cursor.Add(time.Duration(rng.Intn(10)) * time.Second)
		store.Observe(Entry{
			Time:   cursor,
			Query:  storeTestDomains[rng.Intn(len(storeTestDomains))],
			Answer: storeTestServer(rng.Intn(servers)),
			TTL:    DefaultTTL,
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

// TestInterner pins the interner contract: one canonical string per
// distinct domain, byte accounting over distinct domains only, and the
// empty string passing through without being stored.
func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern("facebook.com")
	b := in.Intern("facebook.com")
	if a != b {
		t.Error("equal strings interned to different values")
	}
	if in.Len() != 1 {
		t.Errorf("Len = %d, want 1", in.Len())
	}
	if in.Bytes() != int64(len("facebook.com")) {
		t.Errorf("Bytes = %d, want %d", in.Bytes(), len("facebook.com"))
	}
	in.Intern("fbcdn.net")
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	if got := in.Intern(""); got != "" {
		t.Errorf("Intern(%q) = %q", "", got)
	}
	if in.Len() != 2 {
		t.Errorf("empty string was stored: Len = %d, want 2", in.Len())
	}
}

var benchSinkLabel string

func BenchmarkLabelStoreLabelAt(b *testing.B) {
	store := NewLabelStore(nil)
	base := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(5))
	cursor := base
	const servers = 256
	for i := 1; i <= 20000; i++ {
		cursor = cursor.Add(time.Duration(rng.Intn(10)) * time.Second)
		store.Observe(Entry{
			Time:   cursor,
			Query:  storeTestDomains[rng.Intn(len(storeTestDomains))],
			Answer: storeTestServer(rng.Intn(servers)),
		}, uint64(i))
	}
	span := cursor.Sub(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := base.Add(time.Duration(i%int(span/time.Second)) * time.Second)
		dom, _ := store.LabelAt(storeTestServer(i%servers), pt, 20000)
		benchSinkLabel = dom
	}
}

func ExampleLabelStore() {
	store := NewLabelStore(nil)
	server := netip.MustParseAddr("198.51.100.7")
	t0 := time.Date(2020, 2, 1, 9, 0, 0, 0, time.UTC)
	store.Observe(Entry{Time: t0, Query: "zoom.us", Answer: server}, 1)
	dom, ok := store.LabelAt(server, t0.Add(10*time.Minute), 1)
	fmt.Println(dom, ok)
	_, hidden := store.LabelAt(server, t0.Add(10*time.Minute), 0)
	fmt.Println(hidden)
	// Output:
	// zoom.us true
	// false
}
