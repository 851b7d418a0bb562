package main

import "testing"

// A span's self time subtracts the union of its children's intervals, so
// overlapping children are not subtracted twice, plus its aggregates' busy
// time.
func TestSelfTimeIsIntervalUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "logsink.replay", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "core.seal_day", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "core.snapshot_delta", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 1, Name: "figset.compute", StartNS: 90, EndNS: 120}, // clipped to the parent
		{ID: 5, Parent: 1, Name: "core.ingest", StartNS: 0, EndNS: 100, Calls: 7, BusyNS: 5},
		{ID: 6, Parent: 2, Name: "core.inner", StartNS: 12, EndNS: 18},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (40 + 10) - 5, // children cover [10,50] and [90,100]
		2: 20 - 6,
		3: 30,
		4: 30,
		5: 5, // an aggregate's self time is its busy time
		6: 6,
	} {
		if self[id] != want {
			t.Errorf("span %d self = %d, want %d", id, self[id], want)
		}
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{0, 5}, {5, 10}}, 0, 10, 10},
		{[][2]int64{{3, 4}, {0, 2}, {1, 3}}, 0, 10, 4},
		{[][2]int64{{-5, 5}, {8, 20}}, 0, 10, 7},
		{[][2]int64{{0, 10}, {2, 3}}, 0, 10, 10},
	} {
		if got := unionLen(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("unionLen(%v, %d, %d) = %d, want %d", tc.ivs, tc.lo, tc.hi, got, tc.want)
		}
	}
}

// Spans nest by begin/end order, and an aggregate opened under a span is
// emitted as that span's child when it ends, however many child spans came
// and went in between.
func TestTracerNesting(t *testing.T) {
	tr := newTracer("w")
	outer := tr.begin("logsink.tail")
	a := tr.agg("core.ingest")
	a.kinds[kindFlow].calls++
	t0 := tr.now()
	a.add(kindFlow, t0, t0+3)
	inner := tr.begin("figset.seal")
	t1 := tr.now()
	tr.child("figset.compute", t1, t1+1)
	tr.end(inner)
	tr.end(outer)
	tr.finish()
	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[s.Name] = s
	}
	if s := byName["figset.seal"]; s.Parent != outer {
		t.Errorf("figset.seal parent %d, want %d", s.Parent, outer)
	}
	if s := byName["figset.compute"]; s.Parent != inner {
		t.Errorf("figset.compute parent %d, want %d", s.Parent, inner)
	}
	if s := byName["core.ingest"]; s.Parent != outer || s.Calls != 1 || s.BusyNS != 3 {
		t.Errorf("core.ingest = %+v, want a child of %d with 1 call and 3ns busy", s, outer)
	}
	if c := tr.coverage(); c <= 0 || c > 1 {
		t.Errorf("coverage %v outside (0, 1]", c)
	}
}

// Each kind's busy time is its timed mean scaled to all its calls.
func TestAggregateScalesSamples(t *testing.T) {
	var a agg
	a.kinds[kindFlow].calls = 160
	for i := 0; i < 10; i++ {
		a.add(kindFlow, 0, 2)
	}
	a.kinds[kindDNS].calls = 3
	a.add(kindDNS, 0, 7)
	a.kinds[kindLease].calls = 5 // none timed: contributes no estimate
	calls, busy := a.totals()
	if calls != 168 || busy != 160*2+3*7 {
		t.Errorf("totals = %d calls, %d busy; want 168, %d", calls, busy, 160*2+3*7)
	}
}

// The sampling draw times about one call in sampleEvery.
func TestSinkSamplingRate(t *testing.T) {
	s := &timedSink{a: &agg{}, rng: 0x9e3779b97f4a7c15}
	timed := 0
	const n = 160000
	for i := 0; i < n; i++ {
		if !s.skip(kindFlow) {
			timed++
		}
	}
	if want := n / sampleEvery; timed < want*9/10 || timed > want*11/10 {
		t.Errorf("timed %d of %d calls, want about %d", timed, n, want)
	}
	if s.a.kinds[kindFlow].calls != n {
		t.Errorf("counted %d calls, want %d", s.a.kinds[kindFlow].calls, n)
	}
}
