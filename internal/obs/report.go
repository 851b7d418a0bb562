package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Reporter consumes periodic snapshots. The two built-in implementations
// are TextReporter (human-readable lines, one per interval) and
// JSONReporter (one JSON object per line, for machine consumption).
type Reporter interface {
	Report(Snapshot) error
}

// TextReporter writes one compact progress line per snapshot.
type TextReporter struct {
	W io.Writer
}

// Report renders s as a single line, e.g.
//
//	ingest 12.0s  1.23M ev (102.9k/s)  4.56 GB (389.1 MB/s)  42/121  eta 23s
func (r *TextReporter) Report(s Snapshot) error {
	var b strings.Builder
	if s.Label != "" {
		fmt.Fprintf(&b, "%s ", s.Label)
	}
	fmt.Fprintf(&b, "%.1fs  %s ev (%s/s)  %s (%s/s)",
		s.ElapsedSeconds, siCount(float64(s.Events)), siCount(s.EventsPerSec),
		siBytes(float64(s.Bytes)), siBytes(s.BytesPerSec))
	if s.Total > 0 {
		fmt.Fprintf(&b, "  %d/%d", s.Done, s.Total)
	}
	if s.ETASeconds > 0 {
		fmt.Fprintf(&b, "  eta %s", fmtETA(s.ETASeconds))
	}
	if len(s.DecodeDrops) > 0 {
		parts := make([]string, len(s.DecodeDrops))
		for i, d := range s.DecodeDrops {
			parts[i] = fmt.Sprintf("%s=%d", d.Class, d.Drops)
		}
		fmt.Fprintf(&b, "  faults[%s]", strings.Join(parts, " "))
	}
	b.WriteByte('\n')
	_, err := io.WriteString(r.W, b.String())
	return err
}

// JSONReporter writes one JSON-encoded Snapshot per line (JSONL).
type JSONReporter struct {
	W io.Writer
}

// Report marshals s compactly and appends a newline.
func (r *JSONReporter) Report(s Snapshot) error {
	enc, err := json.Marshal(s)
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = r.W.Write(enc)
	return err
}

// Progress periodically snapshots a Metrics and hands the result to a
// Reporter. All methods are safe on a nil *Progress (no-ops), so callers
// can hold a nil Progress when reporting is disabled.
type Progress struct {
	m        *Metrics
	r        Reporter
	interval time.Duration
	label    string

	done  atomic.Int64
	total atomic.Int64

	start time.Time

	prevMu     sync.Mutex // guards the inst-rate baseline below
	prevT      time.Time
	prevEvents int64
	prevBytes  int64

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// NewProgress builds a reporter loop over m emitting to r every interval.
// Call Start to begin and Stop to emit the final snapshot and shut down.
func NewProgress(m *Metrics, r Reporter, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	return &Progress{m: m, r: r, interval: interval, stop: make(chan struct{})}
}

// SetLabel names the run phase in every snapshot (e.g. "ingest").
func (p *Progress) SetLabel(l string) {
	if p != nil {
		p.label = l
	}
}

// SetTotal declares the number of work units (enables ETA).
func (p *Progress) SetTotal(n int64) {
	if p != nil {
		p.total.Store(n)
	}
}

// SetDone records completed work units.
func (p *Progress) SetDone(n int64) {
	if p != nil {
		p.done.Store(n)
	}
}

// Start launches the reporting goroutine.
func (p *Progress) Start() {
	if p == nil {
		return
	}
	p.start = time.Now()
	p.prevT = p.start
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.emit(false)
			case <-p.stop:
				return
			}
		}
	}()
}

// Stop halts the loop and emits one final snapshot (without ETA).
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() {
		close(p.stop)
		p.wg.Wait()
		p.emit(true)
	})
}

// Snapshot returns the current snapshot with rates and ETA filled in.
func (p *Progress) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	return p.build(true)
}

func (p *Progress) emit(final bool) {
	if p.r == nil {
		return
	}
	_ = p.r.Report(p.build(final))
}

func (p *Progress) build(final bool) Snapshot {
	s := p.m.Snapshot()
	s.Label = p.label
	elapsed := time.Since(p.start)
	s.ElapsedSeconds = elapsed.Seconds()
	if sec := elapsed.Seconds(); sec > 0 {
		s.EventsPerSec = float64(s.Events) / sec
		s.BytesPerSec = float64(s.Bytes) / sec
	}
	now := time.Now()
	p.prevMu.Lock()
	if dt := now.Sub(p.prevT).Seconds(); dt > 0 && !p.prevT.Equal(p.start) {
		s.InstEventsPerSec = float64(s.Events-p.prevEvents) / dt
		s.InstBytesPerSec = float64(s.Bytes-p.prevBytes) / dt
	}
	p.prevT, p.prevEvents, p.prevBytes = now, s.Events, s.Bytes
	p.prevMu.Unlock()
	done, total := p.done.Load(), p.total.Load()
	if total > 0 {
		s.Done, s.Total = done, total
		if !final && done > 0 && done < total {
			s.ETASeconds = elapsed.Seconds() / float64(done) * float64(total-done)
		}
	}
	return s
}
