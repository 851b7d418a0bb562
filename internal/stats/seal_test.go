package stats

import (
	"fmt"
	"sync"
	"testing"
)

// fillHLL inserts n distinct items derived from tag.
func fillHLL(h *HyperLogLog, tag string, n int) {
	for i := 0; i < n; i++ {
		h.AddString(fmt.Sprintf("%s-%d", tag, i))
	}
}

func TestSealedMergeRefused(t *testing.T) {
	a, _ := NewHyperLogLog(12)
	b, _ := NewHyperLogLog(12)
	fillHLL(a, "a", 500)
	fillHLL(b, "b", 500)
	a.Seal()
	before := a.Estimate()
	if err := a.Merge(b); err == nil {
		t.Fatal("Merge into sealed HLL succeeded; want error")
	}
	if got := a.Estimate(); got != before {
		t.Fatalf("sealed HLL mutated by refused Merge: estimate %v -> %v", before, got)
	}
}

func TestSealedAddAndResetPanic(t *testing.T) {
	h, _ := NewHyperLogLog(12)
	h.Seal()
	if !h.Sealed() {
		t.Fatal("Sealed() = false after Seal")
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on sealed HLL did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Add", func() { h.AddString("x") })
	mustPanic("Reset", func() { h.Reset() })
}

func TestMergedCombinesWithoutMutating(t *testing.T) {
	a, _ := NewHyperLogLog(10)
	b, _ := NewHyperLogLog(10)
	u, _ := NewHyperLogLog(10)
	for i := 0; i < 2000; i++ {
		s := fmt.Sprintf("item-%d", i)
		if i%2 == 0 {
			a.AddString(s)
		} else {
			b.AddString(s)
		}
		u.AddString(s)
	}
	a.Seal()
	b.Seal()
	aBefore, bBefore := a.Estimate(), b.Estimate()
	m, err := a.Merged(b)
	if err != nil {
		t.Fatalf("Merged: %v", err)
	}
	if m.Sealed() {
		t.Fatal("Merged result is sealed; want unsealed working copy")
	}
	if got, want := m.Estimate(), u.Estimate(); got != want {
		t.Fatalf("Merged estimate %v, union-built estimate %v", got, want)
	}
	if a.Estimate() != aBefore || b.Estimate() != bBefore {
		t.Fatal("Merged mutated an input estimator")
	}

	c, _ := NewHyperLogLog(11)
	if _, err := a.Merged(c); err == nil {
		t.Fatal("Merged across precisions succeeded; want error")
	}
}

// TestSealedSnapshotConcurrentReaders is the -race regression for the
// epoch-publication model: many readers estimate a sealed snapshot while
// another goroutine repeatedly folds it into fresh working copies via
// Merged. Before clone-on-merge, the equivalent fold (Merge with the
// snapshot as receiver) wrote the shared registers under the readers.
func TestSealedSnapshotConcurrentReaders(t *testing.T) {
	snap, _ := NewHyperLogLog(12)
	fillHLL(snap, "epoch", 5000)
	snap.Seal()
	want := snap.Estimate()

	other, _ := NewHyperLogLog(12)
	fillHLL(other, "next", 5000)

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := snap.Estimate(); got != want {
					t.Errorf("sealed snapshot estimate changed: %v -> %v", want, got)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := snap.Merged(other); err != nil {
				t.Errorf("Merged: %v", err)
				return
			}
		}
	}()
	wg.Wait()
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
