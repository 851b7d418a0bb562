package main

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told to: sleeping jumps to the wake time,
// and an operation advances it by its service time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// An open loop keeps its schedule when the system stalls: requests due
// while the sender is busy queue behind it, and their latency counts from
// when they were due, not from when they were sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	start := time.Unix(1000, 0)
	c := &fakeClock{now: start}
	service := []time.Duration{5, 25, 5, 5, 1}
	shots := openLoop(c, start, 10*time.Millisecond, 1,
		func(i int) bool { return i < len(service) },
		func(i, _ int) bool { c.advance(service[i] * time.Millisecond); return true })
	want := []struct {
		latency, sentAfterDue time.Duration
		idle                  bool
	}{
		{5, 0, true},    // due 0, sent 0, done 5
		{25, 0, true},   // due 10, sent 10, done 35: the stall
		{20, 15, false}, // due 20, sent 35 behind the stall, done 40
		{15, 10, false}, // due 30, sent 40, done 45
		{6, 5, false},   // due 40, sent 45, done 46
	}
	if len(shots) != len(want) {
		t.Fatalf("%d shots, want %d", len(shots), len(want))
	}
	for i, s := range shots {
		w := want[i]
		if s.index != i || s.latency() != w.latency*time.Millisecond ||
			s.sent.Sub(s.due) != w.sentAfterDue*time.Millisecond || s.idle != w.idle {
			t.Errorf("shot %d: latency %v sent+%v idle %v; want %v +%v %v",
				i, s.latency(), s.sent.Sub(s.due), s.idle, w.latency*time.Millisecond, w.sentAfterDue*time.Millisecond, w.idle)
		}
		if s.late != 0 {
			t.Errorf("shot %d: a fake clock never oversleeps, got late %v", i, s.late)
		}
	}
}

// Generator lateness is charged only when the sender was free before the
// due time and woke late.
func TestOpenLoopLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	c := &oversleeper{fakeClock: fakeClock{now: start}, over: 2 * time.Millisecond}
	shots := openLoop(c, start.Add(time.Millisecond), 10*time.Millisecond, 1,
		func(i int) bool { return i < 3 },
		func(int, int) bool { return true })
	for _, s := range shots {
		if !s.idle || s.late != 2*time.Millisecond || s.latency() != 2*time.Millisecond {
			t.Errorf("shot %d: idle %v late %v latency %v; want idle, 2ms, 2ms", s.index, s.idle, s.late, s.latency())
		}
	}
}

type oversleeper struct {
	fakeClock
	over time.Duration
}

func (c *oversleeper) SleepUntil(t time.Time) { c.fakeClock.SleepUntil(t.Add(c.over)) }

func TestOpenLoopSendersShareTheSchedule(t *testing.T) {
	start := time.Now()
	var mu sync.Mutex
	bySender := map[int]int{}
	shots := openLoop(wallClock{}, start, 0, 2,
		func(i int) bool { return i < 200 },
		func(_, w int) bool {
			mu.Lock()
			bySender[w]++
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			return true
		})
	if len(shots) != 200 {
		t.Fatalf("%d shots, want 200", len(shots))
	}
	for i, s := range shots {
		if s.index != i {
			t.Fatalf("shot %d has index %d", i, s.index)
		}
	}
	if bySender[0] == 0 || bySender[1] == 0 {
		t.Errorf("both senders should take work, got %v", bySender)
	}
}

func TestQueryPlan(t *testing.T) {
	a, b := queryPlan(7, 5000), queryPlan(7, 5000)
	counts := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan differs at %d for one seed", i)
		}
		counts[a[i].kind]++
	}
	for _, m := range queryMix {
		got := float64(counts[m.kind]) / 5000
		if want := float64(m.weight) / 100; got < want-0.03 || got > want+0.03 {
			t.Errorf("%s share %.3f, want about %.2f", m.kind, got, want)
		}
	}
	for _, p := range a {
		path := p.path(40)
		switch p.kind {
		case "figure":
			if !strings.HasPrefix(path, "/v1/figures/") || strings.Contains(path, "?") {
				t.Errorf("figure path %q", path)
			}
		case "history":
			if !strings.Contains(path, "?epoch=") {
				t.Errorf("history path %q", path)
			}
		default:
			if path != "/v1/"+p.kind {
				t.Errorf("%s path %q", p.kind, path)
			}
		}
	}
	if got := (planned{kind: "history", fig: "f.csv", pick: 0.999}).path(40); got != "/v1/figures/f.csv?epoch=40" {
		t.Errorf("history pick near 1 = %q, want the newest epoch", got)
	}
	if got := (planned{kind: "history", fig: "f.csv", pick: 0}).path(40); got != "/v1/figures/f.csv?epoch=1" {
		t.Errorf("history pick 0 = %q, want epoch 1", got)
	}
}
