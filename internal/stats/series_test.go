package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMovingAverage(t *testing.T) {
	in := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(in, 3)
	want := []float64{1, 1.5, 2, 3, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMovingAverageK1Identity(t *testing.T) {
	in := []float64{5, -3, 8, 0}
	got := MovingAverage(in, 1)
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("k=1 not identity at %d", i)
		}
	}
	// Non-positive k behaves as k=1 rather than panicking.
	got = MovingAverage(in, 0)
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("k=0 not identity at %d", i)
		}
	}
}

func TestMovingAverageEmpty(t *testing.T) {
	if got := MovingAverage(nil, 3); len(got) != 0 {
		t.Errorf("len = %d", len(got))
	}
}

func TestMovingAverageConstantInvariant(t *testing.T) {
	in := make([]float64, 50)
	for i := range in {
		in[i] = 7.5
	}
	for _, k := range []int{1, 2, 3, 7, 50, 100} {
		for i, v := range MovingAverage(in, k) {
			if math.Abs(v-7.5) > 1e-12 {
				t.Fatalf("k=%d out[%d]=%v", k, i, v)
			}
		}
	}
}

func TestNormalizeByMin(t *testing.T) {
	a := []float64{2, 4, 8}
	b := []float64{0, 6, 10}
	norm, div := NormalizeByMin(a, b)
	if div != 2 {
		t.Fatalf("divisor = %v", div)
	}
	if norm[0][0] != 1 || norm[0][2] != 4 || norm[1][1] != 3 {
		t.Errorf("normalized = %v", norm)
	}
	// Originals untouched.
	if a[0] != 2 || b[0] != 0 {
		t.Error("inputs mutated")
	}
}

func TestNormalizeByMinAllZero(t *testing.T) {
	norm, div := NormalizeByMin([]float64{0, 0})
	if div != 1 || norm[0][0] != 0 {
		t.Errorf("all-zero normalization: %v, %v", norm, div)
	}
}

func TestReservoirExactFill(t *testing.T) {
	r := NewReservoir[int](10, 1)
	for i := 0; i < 5; i++ {
		r.Offer(i)
	}
	if len(r.Sample()) != 5 || r.Seen() != 5 {
		t.Errorf("sample = %v, seen = %d", r.Sample(), r.Seen())
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Offer 0..999 into a 100-slot reservoir many times; each item should
	// be selected ≈ trials*100/1000 times.
	const (
		n      = 1000
		k      = 100
		trials = 400
	)
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir[int](k, int64(trial))
		for i := 0; i < n; i++ {
			r.Offer(i)
		}
		if len(r.Sample()) != k {
			t.Fatalf("sample size %d", len(r.Sample()))
		}
		for _, v := range r.Sample() {
			counts[v]++
		}
	}
	want := float64(trials) * k / n // 40
	for i, c := range counts {
		// Binomial(400, 0.1): sd ≈ 6; allow 6 sigma.
		if math.Abs(float64(c)-want) > 36 {
			t.Errorf("item %d selected %d times, want ≈%.0f", i, c, want)
		}
	}
}

func TestReservoirDeterministicForSeed(t *testing.T) {
	run := func() []int {
		r := NewReservoir[int](7, 42)
		for i := 0; i < 500; i++ {
			r.Offer(i)
		}
		return append([]int(nil), r.Sample()...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Variance()) {
		t.Error("empty Welford not NaN")
	}
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		w.Add(v)
	}
	if w.N() != len(vals) {
		t.Errorf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v", w.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-9 {
		t.Errorf("variance = %v", w.Variance())
	}
}

func TestWelfordMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var w Welford
	var vals []float64
	for i := 0; i < 10000; i++ {
		v := rng.NormFloat64()*3 + 10
		vals = append(vals, v)
		w.Add(v)
	}
	if math.Abs(w.Mean()-Mean(vals)) > 1e-9 {
		t.Errorf("welford mean %v != direct %v", w.Mean(), Mean(vals))
	}
}

func TestHourMatrix(t *testing.T) {
	m := NewHourMatrix()
	if med := m.Medians(); med[0] != 0 {
		t.Error("empty matrix median nonzero")
	}
	// Three devices; hour 10: volumes 1, 3, 5 → median 3. Hour 20: only
	// device 1 has traffic (2); others contribute 0 → median 0.
	m.Add(1, 10, 1)
	m.Add(2, 10, 3)
	m.Add(3, 10, 2)
	m.Add(3, 10, 3) // accumulate: device 3 hour 10 = 5
	m.Add(1, 20, 2)
	if m.Devices() != 3 {
		t.Errorf("devices = %d", m.Devices())
	}
	med := m.Medians()
	if med[10] != 3 {
		t.Errorf("median[10] = %v, want 3", med[10])
	}
	if med[20] != 0 {
		t.Errorf("median[20] = %v, want 0", med[20])
	}
	tot := m.Totals()
	if tot[10] != 9 || tot[20] != 2 {
		t.Errorf("totals = %v, %v", tot[10], tot[20])
	}
	// Out-of-range hours ignored.
	m.Add(9, -1, 100)
	m.Add(9, 168, 100)
	if m.Devices() != 3 {
		t.Error("out-of-range hour created a device")
	}
}

func BenchmarkHourMatrixAdd(b *testing.B) {
	m := NewHourMatrix()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Add(uint64(i%5000), i%168, 1234)
	}
}

func BenchmarkSummarize10k(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rng.ExpFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(vals)
	}
}

func TestReservoirSnapshotIsolation(t *testing.T) {
	r := NewReservoir[int](4, 1)
	for i := 0; i < 4; i++ {
		r.Offer(i)
	}
	snap := r.Snapshot()
	for i := 100; i < 400; i++ {
		r.Offer(i)
	}
	for i, v := range snap {
		if v != i {
			t.Fatalf("snapshot[%d] = %d after later Offers, want %d", i, v, i)
		}
	}
}
