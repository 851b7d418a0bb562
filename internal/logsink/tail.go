package logsink

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
)

// TailSentinel is the default marker file name: its existence under a
// rotated dataset root declares the dataset complete (the writer will
// append no further bytes and create no further day directories).
const TailSentinel = "COMPLETE"

// ErrTailStopped is returned by TailRotated when its Stop channel closes.
// It propagates through the parsers as an ordinary (unclassified) stream
// error, so a line the writer was mid-append at shutdown is neither
// emitted nor counted as a decode drop — the tail simply stops between
// records.
var ErrTailStopped = errors.New("logsink: tail stopped")

// TailOptions configures TailRotated. The embedded ReplayOptions carry
// the same fault machinery batch replay uses (guard policy, seeded
// injection with identical per-day/per-file sub-seeding, so a tailed and
// a batch-replayed dataset see byte-identical corruption).
type TailOptions struct {
	ReplayOptions
	// Poll is the interval between checks for new bytes, new day
	// directories, and the sentinel (default 200ms).
	Poll time.Duration
	// Stop, when closed, aborts the tail with ErrTailStopped at the next
	// poll boundary.
	Stop <-chan struct{}
	// Sentinel overrides the completion marker file name (default
	// TailSentinel).
	Sentinel string
	// OnDaySealed, when non-nil, is called after each day directory has
	// been fully replayed into the sink. final is true when the dataset is
	// complete: this was the last day.
	OnDaySealed func(day string, final bool)
}

// TailRotated follows a growing rotated dataset under root, streaming
// events into sink as the writer produces them, and returns once the
// sentinel file declares the dataset complete (or with ErrTailStopped on
// Stop). It is the live-ingest counterpart of ReplayRotatedWithOptions:
// each day goes through the same replayDir, so the event stream, the
// guard's decisions and the flush positions are identical. Since a day's
// leases come first, its traffic is replayed once its lease log is final.
//
// Within a day the tail blocks at end-of-file until more bytes arrive: a
// torn final line means "the writer is mid-append" and parsing resumes
// when the line completes — no duplicate event, no phantom truncated
// drop. A day is final once a later day directory or the sentinel exists
// (the rotating writer closes a day before starting the next); only then
// is a torn final line a real truncated record, handled by the guard
// exactly as batch replay handles it.
//
// Tail mode requires plain (uncompressed) logs: a gzip stream cannot be
// incrementally decoded past a torn tail.
func TailRotated(root string, sink trace.Sink, opts TailOptions) error {
	poll := opts.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	sentinel := opts.Sentinel
	if sentinel == "" {
		sentinel = TailSentinel
	}
	sentinelPath := filepath.Join(root, sentinel)

	// A root not created yet is an empty dataset still to arrive.
	dayDirs := func() ([]string, error) {
		days, err := DayDirs(root)
		if os.IsNotExist(err) {
			return nil, nil
		}
		return days, err
	}
	seen := 0 // day directories fully replayed so far
	for {
		days, err := dayDirs()
		if err != nil {
			return err
		}
		complete := fileExists(sentinelPath)
		if seen < len(days) {
			day := days[seen]
			next := seen + 1
			final := func() bool {
				if fileExists(sentinelPath) {
					return true
				}
				ds, err := dayDirs()
				return err == nil && len(ds) > next
			}
			if err := tailDay(filepath.Join(root, day), sink, opts.day(day), poll, opts.Stop, final); err != nil {
				return err
			}
			seen = next
			if opts.OnDaySealed != nil {
				ds, err := dayDirs()
				last := fileExists(sentinelPath) && err == nil && len(ds) == seen
				opts.OnDaySealed(day, last)
			}
			continue
		}
		if complete {
			if seen == 0 {
				return fmt.Errorf("logsink: no day directories under %s", root)
			}
			return nil
		}
		select {
		case <-opts.Stop:
			return ErrTailStopped
		case <-time.After(poll):
		}
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// tailReader is a blocking reader over one growing log file: at
// end-of-file it polls for more bytes, returning io.EOF only once the
// day is final (checked before a read that still found nothing — the
// writer closed the file before the finality marker appeared, so no more
// bytes can arrive), ErrTailStopped when stop closes, and errUnwound
// when the replay reading it unwinds. The parsers' line scanners
// block inside Read, which is exactly the torn-tail contract: an
// incomplete final line waits for the writer instead of decoding as
// truncated.
type tailReader struct {
	f      *os.File
	poll   time.Duration
	stop   <-chan struct{}
	unwind <-chan struct{}
	final  func() bool
	fin    bool // finality observed before the previous empty read
}

func (r *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := r.f.Read(p)
		if n > 0 {
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		if r.fin {
			return 0, io.EOF
		}
		if r.final() {
			// Drain once more: bytes may have landed between the empty
			// read above and the finality check.
			r.fin = true
			continue
		}
		if err := waitPoll(r.poll, r.stop, r.unwind); err != nil {
			return 0, err
		}
	}
}

func (r *tailReader) Close() error { return r.f.Close() }

// waitPoll sleeps one poll interval, returning early with ErrTailStopped
// when stop closes or errUnwound when unwind does.
func waitPoll(poll time.Duration, stop, unwind <-chan struct{}) error {
	select {
	case <-stop:
		return ErrTailStopped
	case <-unwind:
		return errUnwound
	case <-time.After(poll):
		return nil
	}
}

// openTail opens one log for tailing, waiting for the file to appear (a
// freshly rotated day directory may not have all files yet).
func openTail(dir, name string, poll time.Duration, stop, unwind <-chan struct{}, final func() bool) (io.ReadCloser, error) {
	for {
		f, err := os.Open(filepath.Join(dir, name))
		if err == nil {
			return &tailReader{f: f, poll: poll, stop: stop, unwind: unwind, final: final}, nil
		}
		if !os.IsNotExist(err) {
			return nil, err
		}
		if fileExists(filepath.Join(dir, name+".gz")) {
			return nil, fmt.Errorf("logsink: %s is gzip-compressed in %s; tail mode requires plain logs", name, dir)
		}
		if final() {
			return nil, fmt.Errorf("logsink: %s missing in finalized day directory %s", name, dir)
		}
		if err := waitPoll(poll, stop, unwind); err != nil {
			return nil, err
		}
	}
}

// tailDay replays one day directory through replayDir, blocking at each
// file's tail until the day is final.
func tailDay(dir string, sink trace.Sink, opts ReplayOptions, poll time.Duration, stop <-chan struct{}, final func() bool) error {
	return replayDir(dir, sink, opts, func(dir, name string, unwind <-chan struct{}) (io.ReadCloser, error) {
		return openTail(dir, name, poll, stop, unwind, final)
	})
}
