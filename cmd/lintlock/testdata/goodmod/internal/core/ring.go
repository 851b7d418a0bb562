// Package core is clean under the concurrency-protocol analyzers: typed
// atomics accessed through their method set and an owned goroutine with a
// close-signaled stop and WaitGroup edge.
package core

import (
	"sync"
	"sync/atomic"
)

type ring struct {
	head atomic.Uint64
	tail atomic.Uint64
}

func (r *ring) push()       { r.tail.Add(1) }
func (r *ring) pop()        { r.head.Add(1) }
func (r *ring) length() int { return int(r.tail.Load() - r.head.Load()) }

// Watch runs until stop closes; wg.Done gives the owner a join edge.
func Watch(r *ring, stop <-chan struct{}, wg *sync.WaitGroup) {
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.length()
			}
		}
	}()
}
