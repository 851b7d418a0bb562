package obs

import (
	"runtime"
	"sync"
	"time"
)

// TimedTask is one named unit of finalization work — a figure, experiment,
// or CSV render. Run must be safe to execute concurrently with every other
// task in the same batch: the figure computations are pure functions over
// the sealed Dataset, each writing a distinct result slot, which is exactly
// what makes the fan-out legal.
type TimedTask struct {
	Name string
	Run  func()
}

// RunTimedParallel executes tasks over a pool of GOMAXPROCS workers and
// returns each task's wall time in milliseconds, keyed by name, plus the
// wall time of the whole fan-out. The per-task times answer "which analysis
// got slower" (they sum to roughly the serial cost); the fan-out wall time
// is what the run actually paid — on a multi-core host it is the max lane,
// not the sum. A single worker degrades to the serial loop, same timings,
// same order.
//
// This lives in obs rather than next to the experiments because timing is
// wall-clock observability: the analysis packages themselves are
// deterministic by policy (no time.Now in internal/experiments — enforced
// by the determinism analyzer), and the pool is the one place allowed to
// hold the stopwatch.
func RunTimedParallel(tasks []TimedTask) (perTaskMS map[string]float64, wallMS float64) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	perTaskMS = make(map[string]float64, len(tasks))
	if len(tasks) == 0 {
		return perTaskMS, 0
	}
	start := time.Now()
	// Results land in a per-task slot (no lock on the hot path); the map is
	// assembled after the pool drains.
	elapsed := make([]time.Duration, len(tasks))
	if workers == 1 {
		for i, t := range tasks {
			t0 := time.Now()
			t.Run()
			elapsed[i] = time.Since(t0)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					t0 := time.Now()
					tasks[i].Run()
					elapsed[i] = time.Since(t0)
				}
			}()
		}
		for i := range tasks {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i, t := range tasks {
		perTaskMS[t.Name] = float64(elapsed[i].Nanoseconds()) / 1e6
	}
	return perTaskMS, float64(time.Since(start).Nanoseconds()) / 1e6
}
