package stats

import (
	"encoding/binary"
	"fmt"
	"math"
)

// HyperLogLog estimates set cardinality in fixed memory. It is the
// design's ablation for distinct-site counting (DESIGN.md §4): the
// pipeline counts §4.1's "34% more distinct sites" exactly, with
// per-device domain bitmaps, and the tests compare this estimator against
// that exact count.
//
// This is the classic Flajolet–Fushimi–Gandouet–Meunier estimator with the
// standard small-range (linear counting) correction.
type HyperLogLog struct {
	p    uint8 // precision: number of index bits
	regs []uint8
}

// NewHyperLogLog returns an estimator with 2^p registers. Precision must be
// in [4, 18]; p=14 gives a ~0.8% standard error in 16 KiB.
func NewHyperLogLog(p uint8) (*HyperLogLog, error) {
	if p < 4 || p > 18 {
		return nil, fmt.Errorf("stats: HLL precision %d outside [4,18]", p)
	}
	return &HyperLogLog{p: p, regs: make([]uint8, 1<<p)}, nil
}

// fnv1a64 hashes data with the 64-bit FNV-1a function. Inlined rather than
// using hash/fnv to avoid a heap allocation per item.
func fnv1a64(data []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// Add inserts an item.
func (h *HyperLogLog) Add(item []byte) {
	x := fnv1a64(item)
	// Mix: FNV has weak avalanche in the high bits; finalize with the
	// splitmix64 finisher so register indexing is unbiased.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31

	idx := x >> (64 - h.p)
	rest := x<<h.p | 1<<(h.p-1) // ensure a terminating bit
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// AddString inserts a string item.
func (h *HyperLogLog) AddString(s string) {
	// Stack-allocate small copies to avoid []byte(s) escaping.
	var buf [128]byte
	if len(s) <= len(buf) {
		n := copy(buf[:], s)
		h.Add(buf[:n])
		return
	}
	h.Add([]byte(s))
}

// AddUint64 inserts an integer item.
func (h *HyperLogLog) AddUint64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Add(buf[:])
}

// Estimate returns the estimated cardinality.
func (h *HyperLogLog) Estimate() float64 {
	m := float64(len(h.regs))
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	switch len(h.regs) {
	case 16:
		alpha = 0.673
	case 32:
		alpha = 0.697
	case 64:
		alpha = 0.709
	}
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting.
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

// Merge folds other into h, mutating h's registers in place. Both must
// share the same precision.
func (h *HyperLogLog) Merge(other *HyperLogLog) error {
	if h.p != other.p {
		return fmt.Errorf("stats: merging HLL precision %d into %d", other.p, h.p)
	}
	for i, r := range other.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
	return nil
}

// Reset clears the estimator.
func (h *HyperLogLog) Reset() {
	for i := range h.regs {
		h.regs[i] = 0
	}
}
