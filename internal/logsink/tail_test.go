package logsink

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultline"
	"repro/internal/trace"
	"repro/internal/universe"
)

// tailPoll is the fast poll interval tests run the tail at.
const tailPoll = 2 * time.Millisecond

func writeSentinel(t *testing.T, root string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(root, TailSentinel), nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyDay clones one day directory of a rotated dataset.
func copyDay(t *testing.T, src, dst, day string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dst, day), 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(src, day))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, day, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, day, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func listDays(t *testing.T, root string) []string {
	t.Helper()
	days, err := DayDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(days) == 0 {
		t.Fatalf("no day directories under %s", root)
	}
	return days
}

// TestTailRotatedMatchesReplayStatic tails an already-complete dataset and
// checks stream-for-stream equality with batch replay — including full
// pipeline-dataset parity under a fixed key.
func TestTailRotatedMatchesReplayStatic(t *testing.T) {
	src := writeRotated(t)
	writeSentinel(t, src)

	clean := &tally{t: t}
	if err := ReplayRotatedWithOptions(src, clean, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	if clean.flows == 0 {
		t.Fatal("degenerate dataset: no flows")
	}

	var sealed []string
	finals := map[string]bool{}
	got := &tally{t: t}
	err := TailRotated(src, got, TailOptions{
		Poll: tailPoll,
		OnDaySealed: func(day string, final bool) {
			sealed = append(sealed, day)
			finals[day] = final
		},
	})
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	if got.flows != clean.flows || got.dns != clean.dns || got.http != clean.http || got.leases != clean.leases {
		t.Fatalf("tail tallies diverge: flows %d/%d dns %d/%d http %d/%d leases %d/%d",
			got.flows, clean.flows, got.dns, clean.dns, got.http, clean.http, got.leases, clean.leases)
	}
	days := listDays(t, src)
	if !reflect.DeepEqual(sealed, days) {
		t.Fatalf("sealed days %v, want %v", sealed, days)
	}
	for i, d := range days {
		if want := i == len(days)-1; finals[d] != want {
			t.Fatalf("day %s final = %v, want %v", d, finals[d], want)
		}
	}

	// Full dataset parity through the real pipeline.
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("tail-parity-key-0123456789abcdef")
	mk := func() *core.Pipeline {
		p, err := core.NewPipeline(reg, core.Options{Key: key})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	batchP := mk()
	if err := ReplayRotatedWithOptions(src, batchP, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	tailP := mk()
	if err := TailRotated(src, tailP, TailOptions{Poll: tailPoll}); err != nil {
		t.Fatal(err)
	}
	want, gotDS := batchP.Finalize(), tailP.Finalize()
	if want.Stats != gotDS.Stats {
		t.Fatalf("stats diverge:\nbatch %+v\ntail  %+v", want.Stats, gotDS.Stats)
	}
	if len(want.Devices) != len(gotDS.Devices) {
		t.Fatalf("%d devices via tail, want %d", len(gotDS.Devices), len(want.Devices))
	}
	for i := range want.Devices {
		if !reflect.DeepEqual(want.Devices[i], gotDS.Devices[i]) {
			t.Fatalf("device %d diverges:\nbatch %+v\ntail  %+v", i, want.Devices[i], gotDS.Devices[i])
		}
	}
}

// TestTailRotatedGrowingDataset grows the dataset under the tail: every
// log is appended in odd-sized chunks (so the tail constantly observes
// torn lines and partial headers), days appear one by one, and the
// sentinel lands last. The tail must deliver exactly the clean event
// stream.
func TestTailRotatedGrowingDataset(t *testing.T) {
	src := writeRotated(t)
	clean := &tally{t: t}
	if err := ReplayRotatedWithOptions(src, clean, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	days := listDays(t, src)

	dst := t.TempDir()
	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(done)
		const chunk = 8191 // odd: chunk edges land mid-line, mid-field
		for _, day := range days {
			if err := os.MkdirAll(filepath.Join(dst, day), 0o755); err != nil {
				errc <- err
				return
			}
			entries, err := os.ReadDir(filepath.Join(src, day))
			if err != nil {
				errc <- err
				return
			}
			type growing struct {
				f    *os.File
				data []byte
				off  int
			}
			var files []*growing
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(src, day, e.Name()))
				if err != nil {
					errc <- err
					return
				}
				f, err := os.Create(filepath.Join(dst, day, e.Name()))
				if err != nil {
					errc <- err
					return
				}
				files = append(files, &growing{f: f, data: data})
			}
			for {
				any := false
				for _, g := range files {
					if g.off >= len(g.data) {
						continue
					}
					end := g.off + chunk
					if end > len(g.data) {
						end = len(g.data)
					}
					if _, err := g.f.Write(g.data[g.off:end]); err != nil {
						errc <- err
						return
					}
					g.off = end
					any = true
				}
				if !any {
					break
				}
				time.Sleep(time.Millisecond)
			}
			for _, g := range files {
				if err := g.f.Close(); err != nil {
					errc <- err
					return
				}
			}
		}
		if err := os.WriteFile(filepath.Join(dst, TailSentinel), nil, 0o644); err != nil {
			errc <- err
		}
	}()

	var sealed []string
	got := &tally{t: t}
	err := TailRotated(dst, got, TailOptions{
		Poll:        tailPoll,
		OnDaySealed: func(day string, final bool) { sealed = append(sealed, day) },
	})
	<-done
	select {
	case werr := <-errc:
		t.Fatalf("writer: %v", werr)
	default:
	}
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	if got.flows != clean.flows || got.dns != clean.dns || got.http != clean.http || got.leases != clean.leases {
		t.Fatalf("grown-tail tallies diverge: flows %d/%d dns %d/%d http %d/%d leases %d/%d",
			got.flows, clean.flows, got.dns, clean.dns, got.http, clean.http, got.leases, clean.leases)
	}
	if !reflect.DeepEqual(sealed, days) {
		t.Fatalf("sealed days %v, want %v", sealed, days)
	}
}

// tornCut picks a seeded byte offset strictly inside a data record of a
// log, so writing the prefix leaves a torn line mid-record.
func tornCut(t *testing.T, data []byte, rng *rand.Rand) int {
	t.Helper()
	type span struct{ start, end int }
	var lines []span
	off := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) > 1 && line[0] != '#' {
			lines = append(lines, span{off, off + len(line)})
		}
		off += len(line) + 1
	}
	if len(lines) == 0 {
		t.Fatal("no data records to tear")
	}
	l := lines[rng.Intn(len(lines))]
	return l.start + 1 + rng.Intn(l.end-l.start-1)
}

// TestTailTornResumeSeededOffsets is the torn_test.go seeded-offset
// property extended to the tail path (the satellite bugfix): at any
// seeded offset, a conn.log cut mid-record means "the writer is
// mid-append" — the tail must wait, resume when the remainder lands, and
// deliver the full clean stream with zero drops (no phantom truncated
// record) and zero duplicates.
func TestTailTornResumeSeededOffsets(t *testing.T) {
	src := writeRotated(t)
	clean := &tally{t: t}
	if err := ReplayRotatedWithOptions(src, clean, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	days := listDays(t, src)
	connData, err := os.ReadFile(filepath.Join(src, days[0], ConnFile))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		cut := tornCut(t, connData, rng)
		dst := t.TempDir()
		done := make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			defer close(done)
			fail := func(err error) { errc <- err }
			// Day 0: every log complete except conn.log, written torn.
			if err := os.MkdirAll(filepath.Join(dst, days[0]), 0o755); err != nil {
				fail(err)
				return
			}
			for _, name := range []string{DNSFile, DHCPFile, HTTPFile} {
				data, err := os.ReadFile(filepath.Join(src, days[0], name))
				if err != nil {
					fail(err)
					return
				}
				if err := os.WriteFile(filepath.Join(dst, days[0], name), data, 0o644); err != nil {
					fail(err)
					return
				}
			}
			connPath := filepath.Join(dst, days[0], ConnFile)
			if err := os.WriteFile(connPath, connData[:cut], 0o644); err != nil {
				fail(err)
				return
			}
			// Leave the tail staring at the torn record, then append the
			// remainder and let the dataset complete.
			time.Sleep(50 * time.Millisecond)
			f, err := os.OpenFile(connPath, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				fail(err)
				return
			}
			if _, err := f.Write(connData[cut:]); err != nil {
				fail(err)
				return
			}
			if err := f.Close(); err != nil {
				fail(err)
				return
			}
			for _, d := range days[1:] {
				copyDay(t, src, dst, d)
			}
			if err := os.WriteFile(filepath.Join(dst, TailSentinel), nil, 0o644); err != nil {
				fail(err)
			}
		}()

		// A skip-policy guard makes a phantom drop countable instead of
		// fatal — the assertion below demands exactly zero.
		guard := faultline.NewGuard(faultline.PolicySkip, 0, nil, nil)
		got := &tally{t: t}
		err := TailRotated(dst, got, TailOptions{
			ReplayOptions: ReplayOptions{Guard: guard},
			Poll:          tailPoll,
		})
		<-done
		select {
		case werr := <-errc:
			t.Fatalf("cut %d: writer: %v", cut, werr)
		default:
		}
		if err != nil {
			t.Fatalf("cut %d: tail: %v", cut, err)
		}
		if guard.DropTotal() != 0 {
			t.Fatalf("cut %d: phantom drops on a torn live tail: %s", cut, guard.Summary())
		}
		if got.flows != clean.flows {
			t.Fatalf("cut %d: %d flows, want %d (no loss, no duplicates)", cut, got.flows, clean.flows)
		}
		if got.dns != clean.dns || got.http != clean.http || got.leases != clean.leases {
			t.Fatalf("cut %d: other streams shifted: dns %d/%d http %d/%d leases %d/%d",
				cut, got.dns, clean.dns, got.http, clean.http, got.leases, clean.leases)
		}
		if guard.Accepted()+guard.DropTotal() != guard.Offered() {
			t.Fatalf("cut %d: accounting broken: %s", cut, guard.Summary())
		}
	}
}

// TestTailFinalTornRecordDropsLikeBatch pins the other side of the torn
// contract: when the dataset is *complete* and the final record really is
// truncated (the writer died mid-append), the tail must classify it
// exactly as batch replay does — one truncated drop, everything else
// delivered.
func TestTailFinalTornRecordDropsLikeBatch(t *testing.T) {
	src := writeRotated(t)
	clean := &tally{t: t}
	if err := ReplayRotatedWithOptions(src, clean, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	torn := copyRotated(t, src)
	tearConnLog(t, torn, 0.5)
	writeSentinel(t, torn)

	guard := faultline.NewGuard(faultline.PolicySkip, 0, nil, nil)
	got := &tally{t: t}
	if err := TailRotated(torn, got, TailOptions{
		ReplayOptions: ReplayOptions{Guard: guard},
		Poll:          tailPoll,
	}); err != nil {
		t.Fatalf("tail: %v", err)
	}
	if guard.DropTotal() != 1 {
		t.Fatalf("drops = %s, want exactly one truncated", guard.Summary())
	}
	if got.flows != clean.flows-1 {
		t.Fatalf("%d flows, want %d", got.flows, clean.flows-1)
	}
}

// TestTailStop checks clean shutdown both while idle (waiting for a new
// day) and while blocked mid-record on a torn line: ErrTailStopped, no
// phantom drops, no stray events.
func TestTailStop(t *testing.T) {
	src := writeRotated(t)
	days := listDays(t, src)

	t.Run("idle", func(t *testing.T) {
		dst := t.TempDir()
		for _, d := range days {
			copyDay(t, src, dst, d)
		}
		// No sentinel: after consuming every day the tail waits for more.
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(30 * time.Millisecond)
			close(stop)
		}()
		got := &tally{t: t}
		err := TailRotated(dst, got, TailOptions{Poll: tailPoll, Stop: stop})
		<-done
		if !errors.Is(err, ErrTailStopped) {
			t.Fatalf("err = %v, want ErrTailStopped", err)
		}
	})

	t.Run("mid-record", func(t *testing.T) {
		dst := t.TempDir()
		copyDay(t, src, dst, days[0])
		connPath := filepath.Join(dst, days[0], ConnFile)
		data, err := os.ReadFile(connPath)
		if err != nil {
			t.Fatal(err)
		}
		cut := tornCut(t, data, rand.New(rand.NewSource(7)))
		if err := os.WriteFile(connPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(30 * time.Millisecond)
			close(stop)
		}()
		guard := faultline.NewGuard(faultline.PolicySkip, 0, nil, nil)
		got := &tally{t: t}
		err = TailRotated(dst, got, TailOptions{
			ReplayOptions: ReplayOptions{Guard: guard},
			Poll:          tailPoll,
			Stop:          stop,
		})
		<-done
		if !errors.Is(err, ErrTailStopped) {
			t.Fatalf("err = %v, want ErrTailStopped", err)
		}
		if guard.DropTotal() != 0 {
			t.Fatalf("stop mid-record produced drops: %s", guard.Summary())
		}
	})
}

// TestTailRequiresPlainLogs: gzip datasets cannot be tailed (a gzip
// stream cannot be incrementally decoded past a torn tail) and must be
// rejected loudly rather than replayed wrong.
func TestTailRequiresPlainLogs(t *testing.T) {
	root := t.TempDir()
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.002
	g, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := NewRotatingWriter(root, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunDays(rw, 5, 6); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	writeSentinel(t, root)
	err = TailRotated(root, &tally{t: t}, TailOptions{Poll: tailPoll})
	if err == nil || errors.Is(err, ErrTailStopped) {
		t.Fatalf("tail of gzip dataset: err = %v, want gzip rejection", err)
	}
}

// TestDayListingEdgeCases pins each caller's reading of the one day
// lister: batch replay refuses a root with no day directories, while the
// tail treats a root that does not exist yet as an empty dataset and
// keeps polling until it appears.
func TestDayListingEdgeCases(t *testing.T) {
	empty := t.TempDir()
	if days, err := DayDirs(empty); err != nil || len(days) != 0 {
		t.Fatalf("DayDirs(empty) = %v, %v; want no days, no error", days, err)
	}
	if err := ReplayRotatedWithOptions(empty, &tally{t: t}, ReplayOptions{}); err == nil {
		t.Fatal("batch replay of a root without day directories succeeded")
	}

	root := filepath.Join(t.TempDir(), "later")
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- TailRotated(root, &tally{t: t}, TailOptions{Poll: tailPoll, Stop: stop})
	}()
	time.Sleep(20 * tailPoll)
	select {
	case err := <-done:
		t.Fatalf("tail of a missing root returned early: %v", err)
	default:
	}
	close(stop)
	if err := <-done; !errors.Is(err, ErrTailStopped) {
		t.Fatalf("tail of a missing root = %v, want ErrTailStopped", err)
	}
}
