package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/logsink"
	"repro/internal/runner"
)

// TestDaemonRefusesQuarantine: the daemon writes no files, so a
// quarantine policy has nowhere to put rejected records. It must refuse to
// start, naming the reason, instead of silently running as skip.
func TestDaemonRefusesQuarantine(t *testing.T) {
	err := run(config{Config: runner.Config{
		Logs: t.TempDir(), Scale: 0.002, Seed: 1, FaultPolicy: "quarantine",
	}, addr: "127.0.0.1:0", poll: time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "quarantine") {
		t.Fatalf("run with -fault-policy quarantine: err = %v, want a refusal naming quarantine", err)
	}
}

var guardLineRe = regexp.MustCompile(`^lockdownd: fault guard: policy=skip offered=(\d+) accepted=(\d+) dropped=(\d+) \[`)

// TestDaemonFaultGuardLineBalances runs the real daemon over a complete
// dataset with seeded corruption under the skip policy: after the final
// epoch it must print the fault-guard audit line, and the line must
// balance (accepted + dropped == offered) with some records dropped.
func TestDaemonFaultGuardLineBalances(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	root := writeE2EDataset(t)
	if err := os.WriteFile(filepath.Join(root, logsink.TailSentinel), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	daemon := exec.Command(e2eBin(t, "lockdownd"),
		"-root", root, "-addr", "127.0.0.1:0", "-scale", fmt.Sprint(e2eScale),
		"-seed", fmt.Sprint(e2eSeed), "-key", e2eKey, "-poll", "5ms",
		"-fault-policy", "skip", "-fault-inject", "0.001", "-fault-seed", "7")
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = daemon.Process.Kill()
		_ = daemon.Wait()
	}()

	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	var guard []string
	timeout := time.After(60 * time.Second)
wait:
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("daemon exited before the dataset completed")
			}
			if m := guardLineRe.FindStringSubmatch(line); m != nil {
				guard = m
			}
			if strings.HasPrefix(line, "lockdownd: dataset complete") {
				break wait
			}
		case <-timeout:
			t.Fatal("timed out waiting for the final epoch")
		}
	}
	if guard == nil {
		t.Fatal("no fault guard audit line before the completion line")
	}
	n := make([]int64, 3)
	for i := range n {
		n[i], _ = strconv.ParseInt(guard[i+1], 10, 64)
	}
	offered, accepted, dropped := n[0], n[1], n[2]
	if accepted+dropped != offered {
		t.Errorf("audit line does not balance: accepted %d + dropped %d != offered %d", accepted, dropped, offered)
	}
	if dropped == 0 {
		t.Errorf("0.001 injection dropped nothing out of %d offered records", offered)
	}

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for range lines {
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
}
