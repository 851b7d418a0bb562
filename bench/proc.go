package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/figset"
)

// procStats is what one finished child process cost.
type procStats struct {
	wall  time.Duration
	cpu   time.Duration // user + system
	rssMB float64       // peak resident set
}

func usage(ps *os.ProcessState, wall time.Duration) procStats {
	st := procStats{wall: wall}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		st.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		st.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return st
}

// procTimeout bounds any single child so a hung program cannot hold a run
// past the time the benchmark is allowed.
const procTimeout = 120 * time.Second

// runTool runs one of the built binaries to completion and returns its cost
// and standard error. A non-zero exit is an error carrying the stderr tail.
func (e *env) runTool(name string, args ...string) (procStats, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), procTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, name), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return procStats{}, stderr.Bytes(), fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, tail(stderr.Bytes(), 2000))
	}
	return usage(cmd.ProcessState, wall), stderr.Bytes(), nil
}

func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}

// buildBinaries compiles the three programs under test into dir. The build
// is not timed by any metric.
func buildBinaries(root, dir string) error {
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/lockdown", "./cmd/tracegen", "./cmd/lockdownd")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// artifactNames lists the files a lockdown run writes and the daemon serves.
func artifactNames() []string { return append(figset.FigureNames(), "report.txt") }

func readArtifacts(dir string) (map[string][]byte, error) {
	arts := map[string][]byte{}
	for _, n := range artifactNames() {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		arts[n] = b
	}
	return arts, nil
}

// diffArtifacts names the first artifact whose bytes differ, or "".
func diffArtifacts(want, got map[string][]byte) string {
	for _, n := range artifactNames() {
		if !bytes.Equal(want[n], got[n]) {
			return n
		}
	}
	return ""
}

// lineWriter splits a child's output into lines and hands each to onLine
// with the time it arrived.
type lineWriter struct {
	mu     sync.Mutex
	buf    []byte
	onLine func(line string, at time.Time)
}

func (w *lineWriter) Write(p []byte) (int, error) {
	at := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		w.onLine(string(w.buf[:i]), at)
		w.buf = w.buf[i+1:]
	}
}

var (
	servingRe  = regexp.MustCompile(`serving on http://(\S+) `)
	sealedRe   = regexp.MustCompile(`^lockdownd: epoch (\d+) sealed`)
	completeRe = regexp.MustCompile(`^lockdownd: dataset complete after (\d+) epochs`)
)

// daemon is one running lockdownd. It learns when each epoch is published
// from the line the daemon writes to stderr right after publishing it, read
// as it arrives.
type daemon struct {
	cmd   *exec.Cmd
	start time.Time

	mu        sync.Mutex
	addr      string
	published map[int]time.Time // epoch → when its line arrived
	final     int               // epoch count once the dataset is complete
	stderr    bytes.Buffer      // last output, for error reports
	notify    chan struct{}     // pulsed (never blocks the writer) on every event

	exited  chan struct{}
	waitErr error
	stats   procStats
}

func (e *env) startDaemon(root string) (*daemon, error) {
	d := &daemon{published: map[int]time.Time{}, notify: make(chan struct{}, 1), exited: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(e.bin, "lockdownd"), "-root", root, "-addr", "127.0.0.1:0",
		"-scale", e.scaleArg(), "-seed", e.seedArg(), "-key", e.keyHex, "-poll", poll.String())
	d.cmd.Stdout = &lineWriter{onLine: func(line string, _ time.Time) {
		if m := servingRe.FindStringSubmatch(line); m != nil {
			d.event(func() { d.addr = m[1] })
		}
	}}
	d.cmd.Stderr = &lineWriter{onLine: func(line string, at time.Time) {
		d.event(func() {
			if d.stderr.Len() > 1<<16 {
				d.stderr.Reset()
			}
			d.stderr.WriteString(line + "\n")
			if m := sealedRe.FindStringSubmatch(line); m != nil {
				n, _ := strconv.Atoi(m[1])
				d.published[n] = at
			} else if m := completeRe.FindStringSubmatch(line); m != nil {
				n, _ := strconv.Atoi(m[1])
				d.published[n] = at
				d.final = n
			}
		})
	}}
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		d.stats = usage(d.cmd.ProcessState, time.Since(d.start))
		close(d.exited)
	}()
	if err := d.waitFor(20*time.Second, func() bool { return d.addr != "" }); err != nil {
		_ = d.stop() // the announcement failure is the error worth reporting
		return nil, fmt.Errorf("lockdownd did not announce its address: %w", err)
	}
	return d, nil
}

func (d *daemon) event(f func()) {
	d.mu.Lock()
	f()
	d.mu.Unlock()
	select {
	case d.notify <- struct{}{}:
	default:
	}
}

// waitFor blocks until cond (evaluated under the lock) holds, the daemon
// exits, or timeout passes.
func (d *daemon) waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		d.mu.Lock()
		ok := cond()
		d.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-d.notify:
		case <-d.exited:
			return fmt.Errorf("lockdownd exited early: %v\n%s", d.waitErr, d.stderrTail())
		case <-deadline.C:
			return fmt.Errorf("timed out after %v\n%s", timeout, d.stderrTail())
		}
	}
}

// publishedAt returns when epoch n was published.
func (d *daemon) publishedAt(n int) (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.published[n]
	return t, ok
}

func (d *daemon) latest() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for e := range d.published {
		n = max(n, e)
	}
	return n
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return tail(d.stderr.Bytes(), 2000)
}

// stop sends SIGTERM, waits for the daemon to exit (killing it if it does
// not within ten seconds) and reports a non-zero exit as an error.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("lockdownd ignored SIGTERM for 10s")
	}
	if d.waitErr != nil {
		return fmt.Errorf("lockdownd exit after SIGTERM: %w\n%s", d.waitErr, d.stderrTail())
	}
	return nil
}
