package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/logsink"
	"repro/internal/stagecache"
)

// servePlan splits the 121 days of a serve-under-ingest run: the first
// prefix days are on disk when the daemon starts, the rest arrive one per
// cadence while it serves, so the measured phase lasts about the run's
// measured seconds.
func (e *env) servePlan(days int) (prefix int) {
	arrive := int(e.seconds / cadence)
	arrive = max(5, min(arrive, days-2))
	return days - arrive
}

// serveUnderIngest: lockdownd follows a growing root while an open-loop
// client queries it.
func (e *env) serveUnderIngest(r *report) error {
	src, root := e.path("src"), e.path("root")
	if _, err := e.tracegen(src); err != nil {
		return err
	}
	ref, err := e.reference(src)
	if err != nil {
		return err
	}
	days, err := dayDirs(src)
	if err != nil {
		return err
	}
	prefix := e.servePlan(len(days))
	if err := moveDays(src, root, days[:prefix]); err != nil {
		return err
	}

	// Set-up: start the daemon over the prefix and wait until it has sealed
	// every day that is final (all but the newest), i.e. epoch prefix-1.
	var setup []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		if d, err = e.startDaemon(root); err != nil {
			return err
		}
		if err := d.waitFor(60*time.Second, func() bool { _, ok := d.published[prefix-1]; return ok }); err != nil {
			_ = d.stop()
			return fmt.Errorf("daemon catch-up: %w", err)
		}
		at, _ := d.publishedAt(prefix - 1)
		setup = append(setup, at.Sub(d.start).Seconds())
		if i < setupReps-1 {
			if err := d.stop(); err != nil {
				r.fail("set-up daemon %d: %v", i, err)
			}
		}
	}
	// Stops the daemon on early returns; a second stop is harmless.
	defer func() { _ = d.stop() }()

	// Measured phase: two open loops on one start time. Days arrive at the
	// cadence (then COMPLETE); queries arrive at queryPeriod until the final
	// epoch is published.
	arriving := days[prefix:]
	start := time.Now().Add(20 * time.Millisecond)
	finalAt := make([]time.Time, len(arriving)+1) // when day prefix-1+i became final
	dayShots := make(chan []shot, 1)
	go func() {
		dayShots <- openLoop(wallClock{}, start, cadence, 1, func(i int) bool { return i <= len(arriving) },
			func(i, _ int) bool {
				var err error
				if i < len(arriving) {
					err = os.Rename(filepath.Join(src, arriving[i]), filepath.Join(root, arriving[i]))
				} else {
					err = os.WriteFile(filepath.Join(root, logsink.TailSentinel), nil, 0o644)
				}
				finalAt[i] = time.Now()
				return err == nil
			})
	}()
	done := make(chan struct{})
	var finalErr error
	go func() {
		finalErr = d.waitFor(time.Duration(len(arriving)+1)*cadence+60*time.Second, func() bool { return d.final != 0 })
		close(done)
	}()

	clients := httpClients(senders)
	base := "http://" + d.addr
	plan := queryPlan(e.seed, int((e.seconds+time.Minute)/queryPeriod))
	queryErrs := make([]error, len(plan))
	queries := openLoop(wallClock{}, start, queryPeriod, senders,
		func(i int) bool {
			select {
			case <-done:
				return false
			default:
				return i < len(plan)
			}
		},
		func(i, w int) bool {
			var ok bool
			_, ok, queryErrs[i] = fetch(clients[w], base+plan[i].path(d.latest()))
			return ok
		})
	renames := <-dayShots
	<-done
	if finalErr != nil {
		return fmt.Errorf("waiting for the final epoch: %w", finalErr)
	}

	// Epoch lag: day prefix-1+i becomes final at finalAt[i]; its epoch is its
	// 1-based day number.
	var lags []float64
	for i, at := range finalAt {
		r.attempted++
		pub, ok := d.publishedAt(prefix + i)
		if !ok || !renames[i].ok || pub.Before(at) {
			r.failed++
			r.fail("epoch %d: published=%v renamed=%v", prefix+i, ok, renames[i].ok)
			continue
		}
		lags = append(lags, float64(pub.Sub(at))/1e6)
	}
	var lat []float64
	byKind := map[string][]float64{}
	var queryLate []float64
	for _, q := range queries {
		r.attempted++
		if !q.ok {
			r.failed++
			r.fail("query %d: %v", q.index, queryErrs[q.index])
			continue
		}
		ms := float64(q.latency()) / 1e6
		lat = append(lat, ms)
		kind := plan[q.index].kind
		byKind[kind] = append(byKind[kind], ms)
		if q.idle {
			queryLate = append(queryLate, float64(q.late)/1e6)
		}
	}
	var dayLate float64
	for _, s := range renames {
		dayLate = max(dayLate, float64(s.late)/1e6)
	}

	// Output check: the final epoch served over HTTP must equal the batch
	// reference byte for byte.
	if n := d.latest(); n != len(days) {
		r.fail("final epoch %d, want %d", n, len(days))
	}
	for _, n := range artifactNames() {
		p := "/v1/figures/" + n
		if n == "report.txt" {
			p = "/v1/report"
		}
		body, _, err := fetch(clients[0], base+p)
		if err != nil {
			r.fail("final fetch: %v", err)
		} else if string(body) != string(ref[n]) {
			r.fail("final epoch %s differs from the batch reference", n)
		}
	}
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	if err := d.stop(); err != nil {
		r.fail("%v", err)
	}

	// result_ms gates both sides of the workload: the median epoch lag (how
	// long a final day waits to be published) plus the p99 query latency from
	// the due time (how long a reader then waits for it, in the slow 1%).
	// Slower seals raise it, slower queries raise it, and so does a gain on
	// one side paid for by a larger loss on the other.
	r.setup(setup)
	lagP50, queryP99 := median(lags), nearestRank(lat, 99)
	r.e2e("result_ms", lagP50+queryP99, "ms",
		fmt.Sprintf("epoch lag p50 %.4g ms of %d days + query p99 %.4g ms of %d", lagP50, len(lags), queryP99, len(lat)))
	r.e2e("cpu_s", d.stats.cpu.Seconds(), "s", "lockdownd total")
	r.e2e("peak_rss_mb", d.stats.rssMB, "MB", "lockdownd")
	r.percentiles("epoch_lag", lags)
	r.percentiles("query", lat)
	for _, m := range queryMix {
		r.percentiles("lockdownd."+m.kind, byKind[m.kind])
	}
	r.detail("loadgen.day_late_ms_max", dayLate, "ms", fmt.Sprintf("n=%d", len(renames)))
	r.percentiles("loadgen.query_late", queryLate)
	r.detail("lockdownd.queries", float64(len(queries)), "count", fmt.Sprintf("over %d connections", senders))

	if e.trace {
		digest, _, err := stagecache.TreeDigest(root)
		if err != nil {
			return err
		}
		return e.traceServe(r, ref, digest, prefix, median(setup)*1e9)
	}
	return nil
}
