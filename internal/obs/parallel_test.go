package obs

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// setProcs sets GOMAXPROCS, the pool size, for the rest of the test (0
// leaves it unchanged) and restores the old value afterwards.
func setProcs(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestRunTimedParallelRunsEveryTaskOnce: every task executes exactly once
// regardless of worker count, and every task gets a timing entry.
func TestRunTimedParallelRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			setProcs(t, workers)
			const n = 23
			var counts [n]atomic.Int64
			tasks := make([]TimedTask, n)
			for i := range tasks {
				i := i
				tasks[i] = TimedTask{
					Name: fmt.Sprintf("task-%02d", i),
					Run:  func() { counts[i].Add(1) },
				}
			}
			perTask, wallMS := RunTimedParallel(tasks)
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Errorf("task %d ran %d times", i, got)
				}
			}
			if len(perTask) != n {
				t.Errorf("got %d timing entries, want %d", len(perTask), n)
			}
			for name, ms := range perTask {
				if ms < 0 {
					t.Errorf("task %s has negative timing %v", name, ms)
				}
			}
			if wallMS < 0 {
				t.Errorf("negative wall time %v", wallMS)
			}
		})
	}
}

// TestRunTimedParallelConcurrent: with more than one worker, tasks that
// block until a peer arrives must still complete — proof two tasks really
// run concurrently (a serial executor would deadlock; the test would hang
// and time out).
func TestRunTimedParallelConcurrent(t *testing.T) {
	setProcs(t, 2)
	rendezvous := make(chan struct{}, 2)
	meet := func() {
		rendezvous <- struct{}{}
		for len(rendezvous) < 2 { // both arrived
			time.Sleep(time.Millisecond)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunTimedParallel([]TimedTask{
			{Name: "a", Run: meet},
			{Name: "b", Run: meet},
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("two tasks never overlapped: pool is not concurrent")
	}
}

// TestRunTimedParallelEmpty: zero tasks is a no-op, not a hang.
func TestRunTimedParallelEmpty(t *testing.T) {
	perTask, wallMS := RunTimedParallel(nil)
	if len(perTask) != 0 || wallMS != 0 {
		t.Fatalf("empty run: (%v, %v)", perTask, wallMS)
	}
}

// TestRunTimedParallelTimings: a deliberately slow task's entry reflects
// its cost, and the fan-out wall time is bounded below by the slowest task.
func TestRunTimedParallelTimings(t *testing.T) {
	const sleep = 20 * time.Millisecond
	setProcs(t, 4)
	perTask, wallMS := RunTimedParallel([]TimedTask{
		{Name: "fast", Run: func() {}},
		{Name: "slow", Run: func() { time.Sleep(sleep) }},
	})
	slowMS := perTask["slow"]
	if slowMS < float64(sleep.Milliseconds())/2 {
		t.Errorf("slow task recorded %vms, expected ≳%v", slowMS, sleep)
	}
	if wallMS < slowMS/2 {
		t.Errorf("wall %vms below slowest task %vms", wallMS, slowMS)
	}
	if perTask["fast"] > perTask["slow"] {
		t.Errorf("fast (%vms) timed above slow (%vms)", perTask["fast"], perTask["slow"])
	}
}
