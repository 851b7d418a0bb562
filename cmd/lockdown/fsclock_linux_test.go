package main

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// waitPastCtime returns once the filesystem clock has passed the newest
// ctime under dir, so a cached run that starts afterwards takes a digest
// memo reference time every file in dir is strictly older than, and its
// memo vouches for all of them. It touches a fresh probe file until the
// probe's mtime is greater.
func waitPastCtime(t *testing.T, dir string) {
	t.Helper()
	var newest int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil {
			newest = max(newest, fi.Sys().(*syscall.Stat_t).Ctim.Nano())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	probeDir := t.TempDir()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		f, err := os.CreateTemp(probeDir, "probe-")
		if err != nil {
			t.Fatal(err)
		}
		fi, err := f.Stat()
		f.Close()
		os.Remove(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if fi.Sys().(*syscall.Stat_t).Mtim.Nano() > newest {
			return
		}
	}
	t.Fatal("the filesystem clock did not pass the tree's newest ctime")
}

// memoActive: the digest memo vouches for unchanged files on Linux.
const memoActive = true
