package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/figset"
)

// clock is the time source of the open-loop schedules; tests substitute a
// fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time         { return time.Now() }
func (wallClock) SleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// shot is one operation of an open-loop schedule.
type shot struct {
	index           int
	due, sent, done time.Time
	// late is how far past due a sender that was free by the due time
	// actually started: the schedule's own lateness. A sender still busy
	// with an earlier operation at the due time is the system's queueing,
	// which latency counts and late does not.
	late time.Duration
	idle bool // the sender was free by the due time
	ok   bool
}

// latency is measured from when the operation was due, so a stall also
// charges the operations queued behind it.
func (s shot) latency() time.Duration { return s.done.Sub(s.due) }

// openLoop runs op(i) due at start + i·period from `senders` concurrent
// senders, each taking the next index as soon as it is free, for as long as
// more(i) holds. Because the schedule never waits for the system, a slow
// system faces a growing queue instead of less load. Shots come back in
// index order.
func openLoop(c clock, start time.Time, period time.Duration, senders int, more func(i int) bool, op func(i, sender int) bool) []shot {
	var next atomic.Int64
	per := make([][]shot, senders)
	var wg sync.WaitGroup
	wg.Add(senders)
	for w := 0; w < senders; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !more(i) {
					return
				}
				due := start.Add(time.Duration(i) * period)
				s := shot{index: i, due: due}
				if !c.Now().After(due) {
					s.idle = true
					c.SleepUntil(due)
				}
				s.sent = c.Now()
				if s.idle {
					s.late = s.sent.Sub(due)
				}
				s.ok = op(i, w)
				s.done = c.Now()
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	var all []shot
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].index < all[j].index })
	return all
}

// Query mix: the share of requests each endpoint class gets, out of 100.
var queryMix = []struct {
	kind   string
	weight int
}{
	{"figure", 40},  // /v1/figures/<name>, cycling through every figure
	{"report", 20},  // /v1/report
	{"epoch", 20},   // /v1/epoch
	{"devices", 10}, // /v1/devices
	{"history", 10}, // /v1/figures/<name>?epoch=n for a past epoch n
}

// planned is one request of the seeded plan. A history request's epoch is
// drawn at send time as 1 + ⌊pick·latest⌋, latest being the newest epoch
// published so far.
type planned struct {
	kind string
	fig  string
	pick float64
}

// queryPlan draws n requests from the mix with a seeded RNG.
func queryPlan(seed int64, n int) []planned {
	rng := rand.New(rand.NewSource(seed))
	names := figset.FigureNames()
	plan := make([]planned, n)
	figs := 0
	for i := range plan {
		r := rng.Intn(100)
		for _, m := range queryMix {
			if r < m.weight {
				plan[i].kind = m.kind
				break
			}
			r -= m.weight
		}
		switch plan[i].kind {
		case "figure":
			plan[i].fig = names[figs%len(names)]
			figs++
		case "history":
			plan[i].fig = names[rng.Intn(len(names))]
			plan[i].pick = rng.Float64()
		}
	}
	return plan
}

func (p planned) path(latest int) string {
	switch p.kind {
	case "figure":
		return "/v1/figures/" + p.fig
	case "history":
		return fmt.Sprintf("/v1/figures/%s?epoch=%d", p.fig, 1+int(p.pick*float64(latest)))
	default:
		return "/v1/" + p.kind
	}
}

// httpClients returns one client per sender, each holding at most one
// connection, so the load arrives over exactly that many connections.
func httpClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return cs
}

// fetch GETs url and reports whether the daemon answered 200 with the
// X-Lockdown-Epoch header every query response must carry.
func fetch(c *http.Client, url string) (body []byte, ok bool, err error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, false, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if resp.Header.Get("X-Lockdown-Epoch") == "" {
		return body, false, fmt.Errorf("GET %s: no X-Lockdown-Epoch header", url)
	}
	return body, true, nil
}
