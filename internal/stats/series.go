package stats

import (
	"math"
	"math/rand"
)

// MovingAverage returns the k-point trailing moving average of values:
// out[i] is the mean of values[max(0,i-k+1) .. i]. The paper's Figure 8
// smooths Switch gameplay traffic with a 3-day moving average. k must be
// positive; the input is not modified.
func MovingAverage(values []float64, k int) []float64 {
	if k <= 0 {
		k = 1
	}
	out := make([]float64, len(values))
	var window float64
	for i, v := range values {
		window += v
		if i >= k {
			window -= values[i-k]
		}
		n := k
		if i+1 < k {
			n = i + 1
		}
		out[i] = window / float64(n)
	}
	return out
}

// NormalizeByMin divides every element by the minimum positive element
// across all the given series, the normalization used by Figure 3 ("data is
// normalized by the minimum volume of traffic across all weeks"). It
// returns the normalized copies and the divisor. If no positive element
// exists, the series are returned unchanged with divisor 1.
func NormalizeByMin(series ...[]float64) ([][]float64, float64) {
	minPos := math.Inf(1)
	for _, s := range series {
		for _, v := range s {
			if v > 0 && v < minPos {
				minPos = v
			}
		}
	}
	if math.IsInf(minPos, 1) {
		minPos = 1
	}
	out := make([][]float64, len(series))
	for i, s := range series {
		c := make([]float64, len(s))
		for j, v := range s {
			c[j] = v / minPos
		}
		out[i] = c
	}
	return out, minPos
}

// Reservoir maintains a uniform random sample of fixed capacity from a
// stream of items (Vitter's algorithm R). The paper's classifier-accuracy
// check "manually reviewed 100 random devices"; the reproduction samples
// devices the same way.
//
// Determinism contract (audited for the incremental-stats refactor): the
// sample is a pure function of (seed, offer order) — there is no hidden
// global or time-dependent state — but it IS order-sensitive, as any
// single-pass sampler must be. Reservoirs therefore stay single-shot and
// are never merged across partials: every consumer offers items from a
// finalized Dataset in ascending-DeviceID order, and the incremental path
// produces Datasets byte-identical to the monolithic pass, so report.txt
// accuracy samples match under a pinned key. TestReservoirDeterministicByOrder
// pins both halves of the contract.
type Reservoir[T any] struct {
	capacity int
	seen     int
	items    []T
	rng      *rand.Rand
}

// NewReservoir returns a reservoir holding up to capacity items, sampling
// decisions driven by the given seed.
func NewReservoir[T any](capacity int, seed int64) *Reservoir[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Reservoir[T]{
		capacity: capacity,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Offer presents one stream item to the sampler.
func (r *Reservoir[T]) Offer(item T) {
	r.seen++
	if len(r.items) < r.capacity {
		r.items = append(r.items, item)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.capacity {
		r.items[j] = item
	}
}

// Sample returns the current sample (aliasing internal storage). Callers
// that publish the sample beyond the reservoir's lifetime — or keep
// offering items afterwards — should use Snapshot instead: later Offers
// overwrite slots in place, so an aliased Sample would mutate under the
// holder.
func (r *Reservoir[T]) Sample() []T { return r.items }

// Snapshot returns a copy of the current sample that later Offers cannot
// mutate.
func (r *Reservoir[T]) Snapshot() []T {
	return append([]T(nil), r.items...)
}

// Seen returns the number of items offered so far.
func (r *Reservoir[T]) Seen() int { return r.seen }

// Welford accumulates running mean and variance in one pass.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (NaN when empty).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased sample variance (NaN when n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}
