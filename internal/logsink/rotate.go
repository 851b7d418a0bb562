package logsink

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/trace"
)

// RotatingWriter writes one dataset directory per study day
// (<root>/2020-02-01/conn.log, ...), the way Zeek rotates its logs. Events
// must arrive in non-decreasing time order (the generator's contract);
// each day boundary closes the previous day's logs.
type RotatingWriter struct {
	root     string
	compress bool
	cur      *Writer
	curDay   campus.Day
	started  bool
	err      error
}

// NewRotatingWriter returns a writer rotating under root.
func NewRotatingWriter(root string, compress bool) (*RotatingWriter, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &RotatingWriter{root: root, compress: compress}, nil
}

func (rw *RotatingWriter) fail(err error) {
	if rw.err == nil && err != nil {
		rw.err = err
	}
}

// ensure switches to the day's writer, rotating if needed.
func (rw *RotatingWriter) ensure(day campus.Day) *Writer {
	if rw.err != nil {
		return nil
	}
	if rw.started && day == rw.curDay {
		return rw.cur
	}
	if rw.started {
		rw.fail(rw.cur.Close())
	}
	w, err := newWriter(filepath.Join(rw.root, day.String()), rw.compress)
	if err != nil {
		rw.fail(err)
		return nil
	}
	rw.cur, rw.curDay, rw.started = w, day, true
	return w
}

// Flow implements trace.Sink.
func (rw *RotatingWriter) Flow(r flow.Record) {
	if day, ok := campus.DayOf(r.Start); ok {
		if w := rw.ensure(day); w != nil {
			w.Flow(r)
		}
	}
}

// DNS implements trace.Sink.
func (rw *RotatingWriter) DNS(e dnssim.Entry) {
	if day, ok := campus.DayOf(e.Time); ok {
		if w := rw.ensure(day); w != nil {
			w.DNS(e)
		}
	}
}

// HTTPMeta implements trace.Sink.
func (rw *RotatingWriter) HTTPMeta(e httplog.Entry) {
	if day, ok := campus.DayOf(e.Time); ok {
		if w := rw.ensure(day); w != nil {
			w.HTTPMeta(e)
		}
	}
}

// Lease implements trace.Sink.
func (rw *RotatingWriter) Lease(l dhcp.Lease) {
	if day, ok := campus.DayOf(l.Start); ok {
		if w := rw.ensure(day); w != nil {
			w.Lease(l)
		}
	}
}

// Close finishes the open day.
func (rw *RotatingWriter) Close() error {
	if rw.started {
		rw.fail(rw.cur.Close())
	}
	return rw.err
}

// ReplayRotatedWithOptions replays a rotated dataset: every day directory
// under root, in date order, each through one DayReplayer. One guard
// spans the whole dataset (the error budget is global, matching a
// multi-month run).
func ReplayRotatedWithOptions(root string, sink trace.Sink, opts ReplayOptions) error {
	days, err := DayDirs(root)
	if err != nil {
		return err
	}
	if len(days) == 0 {
		return fmt.Errorf("logsink: no day directories under %s", root)
	}
	var r DayReplayer
	for _, d := range days {
		if err := r.Replay(root, d, sink, opts); err != nil {
			return err
		}
	}
	return nil
}

// DayDirs returns the dataset's day directory names under root in date
// order (YYYY-MM-DD sorts chronologically) — the unit the per-day stats
// cache keys and replays. A root without day directories yields an empty
// list; what that means is the caller's decision.
func DayDirs(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var days []string
	for _, e := range entries {
		if e.IsDir() {
			days = append(days, e.Name())
		}
	}
	sort.Strings(days)
	return days, nil
}

// DayReplayer replays the day directories of rotated datasets one at a
// time, through one decode window that it allocates once and reuses for
// every day. Its zero value is ready; it must not run two replays at once.
type DayReplayer struct{ w window }

// Replay replays exactly one day directory of a rotated dataset in
// replayDir's order, with injection sub-seeded per day, so a day's stream
// is the one every other path feeds for that day.
func (r *DayReplayer) Replay(root, day string, sink trace.Sink, opts ReplayOptions) error {
	return replayDir(filepath.Join(root, day), sink, opts.day(day), openLog, &r.w)
}

// ReplayRotatedDay replays one day directory through a fresh DayReplayer.
func ReplayRotatedDay(root, day string, sink trace.Sink, opts ReplayOptions) error {
	return new(DayReplayer).Replay(root, day, sink, opts)
}
