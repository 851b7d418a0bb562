package core

import (
	"sync"
	"testing"
	"time"
)

// tagBatch builds a batch whose first slot carries tag in its flow byte
// count, so FIFO order is checkable across the ring.
func tagBatch(tag uint64, n int) *eventBatch {
	b := new(eventBatch)
	b.n = n
	b.events[0].flow.OrigBytes = int64(tag)
	return b
}

// TestRingEmptyThenClose: pop on a closed empty ring reports done
// immediately, and stays done.
func TestRingEmptyThenClose(t *testing.T) {
	r := newBatchRing(4)
	if got := r.len(); got != 0 {
		t.Fatalf("fresh ring len = %d, want 0", got)
	}
	r.close()
	for i := 0; i < 3; i++ {
		if b, ok := r.pop(); ok || b != nil {
			t.Fatalf("pop on closed empty ring = (%v, %v), want (nil, false)", b, ok)
		}
	}
}

// TestRingFullThenDrain fills the ring to capacity, drains it in FIFO
// order, and checks occupancy at every step.
func TestRingFullThenDrain(t *testing.T) {
	const cap = 8
	r := newBatchRing(cap)
	for i := 0; i < cap; i++ {
		r.push(tagBatch(uint64(i), 1))
		if got := r.len(); got != i+1 {
			t.Fatalf("len after %d pushes = %d", i+1, got)
		}
	}
	if got := r.capacity(); got != cap {
		t.Fatalf("capacity = %d, want %d", got, cap)
	}
	r.close()
	for i := 0; i < cap; i++ {
		b, ok := r.pop()
		if !ok {
			t.Fatalf("pop %d reported closed with batches remaining", i)
		}
		if uint64(b.events[0].flow.OrigBytes) != uint64(i) {
			t.Fatalf("pop %d = tag %d, want %d (FIFO violated)", i, uint64(b.events[0].flow.OrigBytes), i)
		}
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop after drain+close should report done")
	}
}

// TestRingWraparound pushes and pops through several times the capacity
// single-threaded, so the cursors wrap the index mask repeatedly.
func TestRingWraparound(t *testing.T) {
	const cap = 4
	r := newBatchRing(cap)
	tag := uint64(0)
	next := uint64(0)
	for round := 0; round < 10*cap; round++ {
		// Vary the fill level so wraps land at every offset.
		fill := 1 + round%cap
		for i := 0; i < fill; i++ {
			r.push(tagBatch(tag, 1))
			tag++
		}
		for i := 0; i < fill; i++ {
			b, ok := r.pop()
			if !ok {
				t.Fatal("unexpected closed")
			}
			if uint64(b.events[0].flow.OrigBytes) != next {
				t.Fatalf("round %d: got tag %d, want %d", round, uint64(b.events[0].flow.OrigBytes), next)
			}
			next++
		}
		if got := r.len(); got != 0 {
			t.Fatalf("round %d: len = %d after drain", round, got)
		}
	}
}

// TestRingPushBlocksUntilPop: a push into a full ring must stall (counted)
// and complete once the consumer frees a slot.
func TestRingPushBlocksUntilPop(t *testing.T) {
	r := newBatchRing(1)
	r.push(tagBatch(0, 1))
	done := make(chan struct{})
	go func() {
		r.push(tagBatch(1, 1)) // blocks: ring full
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("push into a full ring returned without a pop")
	case <-time.After(20 * time.Millisecond):
	}
	if b, ok := r.pop(); !ok || uint64(b.events[0].flow.OrigBytes) != 0 {
		t.Fatalf("pop = (%v,%v), want tag 0", b, ok)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("push did not complete after a slot freed")
	}
	if r.stallCount() == 0 {
		t.Error("full-ring stall episode was not counted")
	}
}

// TestRingSPSCHammer is the property test: one producer and one consumer
// hammering concurrently (run under -race in CI, un-short) at the
// adversarial capacities {1, 2, 256}. Asserts strict FIFO order, zero
// loss, zero duplication, and batch-boundary publication: every batch
// arrives with exactly the event count and tag it was pushed with — a
// consumer never observes a batch before the producer finished writing
// its slots.
func TestRingSPSCHammer(t *testing.T) {
	const total = 20000
	for _, cap := range []int{1, 2, 256} {
		t.Run(map[int]string{1: "cap-1", 2: "cap-2", 256: "cap-256"}[cap], func(t *testing.T) {
			r := newBatchRing(cap)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < total; i++ {
					// Fill every slot the batch claims, so a torn (pre-
					// publication) read would surface as a tag mismatch.
					n := 1 + i%batchCap
					b := batchPool.Get().(*eventBatch)
					b.n = n
					for s := 0; s < n; s++ {
						b.events[s].flow.OrigBytes = int64(i)
					}
					r.push(b)
				}
				r.close()
			}()
			seen := 0
			for {
				b, ok := r.pop()
				if !ok {
					break
				}
				wantN := 1 + seen%batchCap
				if b.n != wantN {
					t.Fatalf("batch %d: n = %d, want %d (batch published before fully written?)", seen, b.n, wantN)
				}
				for s := 0; s < b.n; s++ {
					if uint64(b.events[s].flow.OrigBytes) != uint64(seen) {
						t.Fatalf("batch %d slot %d: tag %d, want %d", seen, s, uint64(b.events[s].flow.OrigBytes), seen)
					}
				}
				b.n = 0
				batchPool.Put(b)
				seen++
			}
			wg.Wait()
			if seen != total {
				t.Fatalf("consumer saw %d batches, want %d (loss or duplication)", seen, total)
			}
			if got := r.len(); got != 0 {
				t.Errorf("len = %d after drain", got)
			}
		})
	}
}

// BenchmarkRingTransfer measures the steady-state per-batch transfer cost
// of the SPSC ring (one producer goroutine pushing, the bench goroutine
// popping) — the number the "two uncontended atomics per batch" claim in
// ring.go cashes out to.
func BenchmarkRingTransfer(b *testing.B) {
	r := newBatchRing(defaultRingCap)
	batch := tagBatch(0, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			r.push(batch)
		}
		r.close()
	}()
	for {
		if _, ok := r.pop(); !ok {
			break
		}
	}
}

// TestRingCapacityValidation: non-power-of-two and non-positive capacities
// must be rejected before they corrupt the index mask.
func TestRingCapacityValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newBatchRing(%d) did not panic", bad)
				}
			}()
			newBatchRing(bad)
		}()
	}
	for _, good := range []int{1, 2, 4, 256} {
		if r := newBatchRing(good); r.capacity() != good {
			t.Errorf("capacity(%d) = %d", good, r.capacity())
		}
	}
}
