// Package core violates the concurrency-protocol invariants on purpose:
// mixed plain/atomic field access and a goroutine with no shutdown edge.
package core

import "sync/atomic"

type ring struct {
	head uint64
	tail uint64
}

func (r *ring) push() { atomic.AddUint64(&r.tail, 1) }
func (r *ring) pop()  { atomic.AddUint64(&r.head, 1) }

// length mixes plain reads of both cursors with the atomic accesses above.
func (r *ring) length() int { return int(r.tail - r.head) }

// Watch leaks: the goroutine spins forever with no WaitGroup, close
// signal, or ignore directive.
func Watch(r *ring) {
	go func() {
		for {
			_ = r.length()
		}
	}()
}
