package logsink

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/decodeerr"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/faultline"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/trace"
	"repro/internal/universe"
)

// requireNoLeak fails unless the goroutine count falls back to baseline
// (an exiting goroutine takes a moment to be reaped after it signals).
func requireNoLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runRecorder is a batch-capable sink that logs each EventBatch run and
// each Flush as it arrives.
type runRecorder struct {
	runs [][]streamEvent // one entry per EventBatch; a nil entry is a Flush
}

func (r *runRecorder) Flow(flow.Record)       { panic("per-event call on a batch sink") }
func (r *runRecorder) DNS(dnssim.Entry)       { panic("per-event call on a batch sink") }
func (r *runRecorder) HTTPMeta(httplog.Entry) { panic("per-event call on a batch sink") }
func (r *runRecorder) Lease(dhcp.Lease)       { panic("per-event call on a batch sink") }
func (r *runRecorder) Flush()                 { r.runs = append(r.runs, nil) }

func (r *runRecorder) EventBatch(events []trace.Event) {
	rec := &recorder{}
	for i := range events {
		events[i].Deliver(rec)
	}
	r.runs = append(r.runs, rec.seq)
}

// eventLog is a plain sink keeping every delivered event.
type eventLog struct{ events []trace.Event }

func (l *eventLog) Flow(r flow.Record) {
	l.events = append(l.events, trace.Event{Kind: trace.EventFlow, Flow: r})
}
func (l *eventLog) DNS(e dnssim.Entry) {
	l.events = append(l.events, trace.Event{Kind: trace.EventDNS, DNS: e})
}
func (l *eventLog) HTTPMeta(e httplog.Entry) {
	l.events = append(l.events, trace.Event{Kind: trace.EventHTTP, HTTP: e})
}
func (l *eventLog) Lease(d dhcp.Lease) {
	l.events = append(l.events, trace.Event{Kind: trace.EventLease, Lease: d})
}

// connRows splits day's conn.log into lines and returns them with the
// indexes of its data rows.
func connRows(t *testing.T, root, day string) (lines []string, rows []int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, day, ConnFile))
	if err != nil {
		t.Fatal(err)
	}
	lines = strings.SplitAfter(string(data), "\n")
	for i, l := range lines {
		if l != "" && !strings.HasPrefix(l, "#") {
			rows = append(rows, i)
		}
	}
	return lines, rows
}

// corruptConnRecord replaces the timestamp of the conn record halfway
// through day's conn.log with garbage, a strict-policy decode error, and
// returns how many of the day's conn records precede it.
func corruptConnRecord(t *testing.T, root, day string) int {
	t.Helper()
	lines, rows := connRows(t, root, day)
	k := len(rows) / 2
	i := rows[k]
	lines[i] = "bad" + lines[i][strings.IndexByte(lines[i], '\t'):]
	if err := os.WriteFile(filepath.Join(root, day, ConnFile), []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestReplayStrictErrorPrefix pins the error-prefix contract: a strict
// decode error at record k stops the replay with every event accepted
// before k delivered — one by one to a plain sink, and to a batch sink in
// exactly the runs a Batcher forms from that prefix, with no trailing
// Flush.
func TestReplayStrictErrorPrefix(t *testing.T) {
	root := writeRotated(t)
	days, err := DayDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	_, day0 := connRows(t, root, days[0])
	k := corruptConnRecord(t, root, days[1])

	// The strict replay stops right after delivering the flow the
	// corrupt record follows: every day-0 flow and the k day-1 flows
	// before it, and everything else exactly as the skip replay (which
	// drops only the corrupt record) delivers it up to there.
	plain := &eventLog{}
	err = ReplayRotatedWithOptions(root, plain, ReplayOptions{})
	if class, ok := decodeerr.ClassOf(err); !ok || class != decodeerr.Malformed {
		t.Fatalf("strict replay err = %v, want a malformed decode error", err)
	}
	skipped := &eventLog{}
	guard := faultline.NewGuard(faultline.PolicySkip, 0, nil, nil)
	if err := ReplayRotatedWithOptions(root, skipped, ReplayOptions{Guard: guard}); err != nil {
		t.Fatal(err)
	}
	if guard.DropTotal() != 1 {
		t.Fatalf("skip replay: %s, want exactly the one corrupt record dropped", guard.Summary())
	}
	n := len(plain.events)
	if n == 0 || n >= len(skipped.events) || plain.events[n-1].Kind != trace.EventFlow {
		t.Fatalf("strict replay delivered %d of %d events, want a prefix ending in a flow", n, len(skipped.events))
	}
	for i := range plain.events {
		if plain.events[i] != skipped.events[i] {
			t.Fatalf("event %d: strict %+v, skip %+v", i, plain.events[i], skipped.events[i])
		}
	}
	flows := 0
	for _, e := range plain.events {
		if e.Kind == trace.EventFlow {
			flows++
		}
	}
	if want := len(day0) + k; flows != want {
		t.Fatalf("strict replay delivered %d flows, want %d (%d on day 0, %d on day 1)", flows, want, len(day0), k)
	}

	// A batch sink: the runs the Batcher forms from the per-event
	// prefix, with flushes at day rollovers and none at the end.
	got := &runRecorder{}
	if err := ReplayRotatedWithOptions(root, got, ReplayOptions{}); err == nil {
		t.Fatal("batch replay accepted the corrupt record")
	}
	flushed := &recorder{}
	if err := ReplayRotatedWithOptions(root, flushed, ReplayOptions{Guard: faultline.NewGuard(faultline.PolicySkip, 0, nil, nil)}); err != nil {
		t.Fatal(err)
	}
	want := &runRecorder{}
	b := trace.NewBatcher(want)
	i := 0
	for _, e := range flushed.seq {
		if i == n {
			break
		}
		if e.kind == flushMark {
			b.Flush()
			continue
		}
		plain.events[i].Deliver(b)
		i++
	}
	if len(got.runs) == 0 {
		t.Fatal("batch sink saw nothing before the error")
	}
	requireSameRuns(t, got.runs, want.runs)
}

func requireSameRuns(t *testing.T, got, want [][]streamEvent) {
	t.Helper()
	for i := 0; i < min(len(got), len(want)); i++ {
		if (got[i] == nil) != (want[i] == nil) {
			t.Fatalf("run %d: flush=%v, want flush=%v", i, got[i] == nil, want[i] == nil)
		}
		requireSameSeq(t, "batch run", got[i], want[i])
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs and flushes, want %d", len(got), len(want))
	}
}

// errSinkFailed is the panic value of panicSink.
var errSinkFailed = errors.New("sink failed")

// panicSink panics on its n-th event.
type panicSink struct{ n int }

func (p *panicSink) tick() {
	if p.n--; p.n == 0 {
		panic(errSinkFailed)
	}
}

func (p *panicSink) Flow(flow.Record)       { p.tick() }
func (p *panicSink) DNS(dnssim.Entry)       { p.tick() }
func (p *panicSink) HTTPMeta(httplog.Entry) { p.tick() }
func (p *panicSink) Lease(dhcp.Lease)       { p.tick() }

// replayPanics runs replay and requires it to panic with errSinkFailed.
func replayPanics(t *testing.T, replay func() error) {
	t.Helper()
	defer func() {
		if r := recover(); r != errSinkFailed {
			t.Fatalf("recovered %v, want the sink's panic", r)
		}
	}()
	err := replay()
	t.Fatalf("replay returned %v, want a panic", err)
}

// TestReplaySinkPanicUnwinds: a sink that panics mid-day leaves no
// producer goroutine behind — in batch replay, and in a tail whose
// producer is blocked waiting for the writer when the panic unwinds.
func TestReplaySinkPanicUnwinds(t *testing.T) {
	src := writeRotated(t)
	days, err := DayDirs(src)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	replayPanics(t, func() error {
		return ReplayRotatedWithOptions(src, &panicSink{n: 700}, ReplayOptions{})
	})
	requireNoLeak(t, baseline)

	// A day that never becomes final (no later day, no sentinel) with
	// more than two runs of leases: the producer hands over two full
	// runs, then waits at the end of dhcp.log for more.
	dst := t.TempDir()
	copyDay(t, src, dst, days[0])
	path := filepath.Join(dst, days[0], DHCPFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := splitHeader(string(data))
	var b strings.Builder
	b.WriteString(header)
	for n := 0; n < 2*runLen+10; n += len(rows) {
		for _, r := range rows {
			b.WriteString(r)
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, runLen + 1} {
		replayPanics(t, func() error {
			return TailRotated(dst, &panicSink{n: n}, TailOptions{Poll: tailPoll})
		})
		requireNoLeak(t, baseline)
	}
}

// splitHeader splits a log into its leading comment lines and its data
// rows (each with its newline); trailing comments are dropped.
func splitHeader(log string) (header string, rows []string) {
	for _, l := range strings.SplitAfter(log, "\n") {
		switch {
		case strings.HasPrefix(l, "#") && rows == nil:
			header += l
		case l != "" && !strings.HasPrefix(l, "#"):
			rows = append(rows, l)
		}
	}
	return header, rows
}

// TestTailStopMidDayNoLeak: a tail stopped while its producer waits
// mid-day for the writer returns ErrTailStopped and leaves no goroutine
// behind. The sink has every record read before the stop: the finished
// first day, then the second day's leases.
func TestTailStopMidDayNoLeak(t *testing.T) {
	src := writeRotated(t)
	days, err := DayDirs(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	copyDay(t, src, dst, days[0])
	copyDay(t, src, dst, days[1]) // day 1 is not final: no day 2, no sentinel

	want := &eventLog{}
	if err := ReplayRotatedDay(src, days[0], want, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(src, days[1], DHCPFile))
	if err != nil {
		t.Fatal(err)
	}
	leases, err := dhcp.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leases {
		want.Lease(l)
	}

	baseline := runtime.NumGoroutine()
	stop := make(chan struct{})
	got := &eventLog{}
	err = TailRotated(dst, got, TailOptions{
		Poll: tailPoll,
		Stop: stop,
		OnDaySealed: func(string, bool) {
			time.AfterFunc(20*time.Millisecond, func() { close(stop) })
		},
	})
	if !errors.Is(err, ErrTailStopped) {
		t.Fatalf("err = %v, want ErrTailStopped", err)
	}
	if len(got.events) != len(want.events) {
		t.Fatalf("%d events before the stop, want %d", len(got.events), len(want.events))
	}
	for i := range want.events {
		if got.events[i] != want.events[i] {
			t.Fatalf("event %d: %+v, want %+v", i, got.events[i], want.events[i])
		}
	}
	requireNoLeak(t, baseline)
}

// TestReplayFaultOutputsPinned pins what a replay under 0.1% injected
// corruption produces — the delivered stream, the guard's audit line and
// the quarantine bytes — under the quarantine and skip policies. The
// digests were recorded with the serial replay loop this pipelined one
// replaced, so they hold decode and delivery to its exact output.
func TestReplayFaultOutputsPinned(t *testing.T) {
	root := writeRotated(t)
	for _, tc := range []struct {
		policy faultline.Policy
		want   string
	}{
		{faultline.PolicyQuarantine, "49f46a14aead9985d78549eb6fe93e2f7fb5c90e740764b29e422386cc039e9d"},
		{faultline.PolicySkip, "04bc35d134bc3ea3a8776d780714324eb2f7d43efd15dc45eb1e89f6ebbac172"},
	} {
		var quarantine bytes.Buffer
		guard := faultline.NewGuard(tc.policy, 0, &quarantine, nil)
		rec := &recorder{}
		opts := ReplayOptions{Guard: guard, Inject: &faultline.Config{Seed: 7, Rate: 0.001}}
		if err := ReplayRotatedWithOptions(root, rec, opts); err != nil {
			t.Fatal(err)
		}
		if guard.DropTotal() == 0 {
			t.Fatalf("%s: no drops under injection", tc.policy)
		}
		h := sha256.New()
		for _, e := range rec.seq {
			var b [17]byte
			b[0] = byte(e.kind)
			binary.BigEndian.PutUint64(b[1:], uint64(e.at))
			binary.BigEndian.PutUint64(b[9:], e.id)
			h.Write(b[:])
		}
		h.Write([]byte(guard.Summary()))
		h.Write(quarantine.Bytes())
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: digest %s, want %s (%s, %d quarantine bytes)", tc.policy, got, tc.want, guard.Summary(), quarantine.Len())
		}
	}
}

// discard is a sink that drops every event.
type discard struct{}

func (discard) Flow(flow.Record)       {}
func (discard) DNS(dnssim.Entry)       {}
func (discard) HTTPMeta(httplog.Entry) {}
func (discard) Lease(dhcp.Lease)       {}

// BenchmarkReplayDay replays one fixture day directory, into a sink that
// drops every event (decode and hand-over alone) and into a fresh
// single pipeline, reporting records/s and allocations per record.
func BenchmarkReplayDay(b *testing.B) {
	root := writeRotated(b)
	days, err := DayDirs(root)
	if err != nil {
		b.Fatal(err)
	}
	reg, err := universe.New()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		sink func() trace.Sink
	}{
		{"discard", func() trace.Sink { return discard{} }},
		{"pipeline", func() trace.Sink {
			pipe, err := core.NewPipeline(reg, core.Options{Key: []byte("logsink-bench-key-0123456789abcd")})
			if err != nil {
				b.Fatal(err)
			}
			return pipe
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var records, mallocs uint64
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sink := bc.sink()
				guard := faultline.NewGuard(faultline.PolicyStrict, 0, nil, nil)
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				if err := ReplayRotatedDay(root, days[1], sink, ReplayOptions{Guard: guard}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				records += uint64(guard.Accepted())
				b.StartTimer()
			}
			b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(mallocs)/float64(records), "allocs/record")
		})
	}
}
