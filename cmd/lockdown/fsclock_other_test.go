//go:build !linux

package main

import "testing"

// waitPastCtime has nothing to wait for where the digest memo is inert.
func waitPastCtime(*testing.T, string) {}

// memoActive: without an inode and ctime in the stat, the digest memo
// vouches for nothing and every cached run reads the whole tree.
const memoActive = false
