package stagecache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// dayFiles are the per-day logs a rotated dataset holds.
var dayFiles = []string{"conn.log", "dns.log", "dhcp.log", "http.log"}

// writeRotated builds a rotated tree under dir: one directory per day, each
// holding dayFiles with content that differs by day and file, sized so the
// tree totals about size bytes.
func writeRotated(tb testing.TB, dir string, days int, size int) {
	tb.Helper()
	per := size / (days * len(dayFiles))
	for d := 0; d < days; d++ {
		day := filepath.Join(dir, fmt.Sprintf("2020-%03d", d))
		if err := os.MkdirAll(day, 0o755); err != nil {
			tb.Fatal(err)
		}
		for i, name := range dayFiles {
			line := fmt.Sprintf("day %d file %d flow\n", d, i)
			content := strings.Repeat(line, per/len(line)+1)
			if err := os.WriteFile(filepath.Join(day, name), []byte(content), 0o644); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// treeSize sums the regular files under dir with os.Stat alone.
func treeSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// TestTreeDigestSubdirs checks the Merkle children: every returned
// subdirectory digest, nested ones and an empty one included, is what
// TreeDigest says for that subdirectory alone, and the byte count matches
// an independent stat walk.
func TestTreeDigestSubdirs(t *testing.T) {
	dir := t.TempDir()
	writeRotated(t, dir, 3, 6000)
	for _, sub := range []string{"2020-001/extra/deeper", "empty"} {
		if err := os.MkdirAll(filepath.Join(dir, filepath.FromSlash(sub)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "2020-001", "extra", "deeper", "x.log"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	tree, err := HashTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"2020-000", "2020-001", "2020-001/extra", "2020-001/extra/deeper", "2020-002", "empty"}
	var got []string
	for rel := range tree.Dirs {
		got = append(got, rel)
	}
	if len(got) != len(want) {
		t.Fatalf("subdirectories = %v, want %v", got, want)
	}
	for _, rel := range want {
		d, n, err := TreeDigest(filepath.Join(dir, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		if tree.Dirs[rel] != d {
			t.Errorf("%s: HashTree child %s, TreeDigest %s", rel, tree.Dirs[rel], d)
		}
		if n != treeSize(t, filepath.Join(dir, filepath.FromSlash(rel))) {
			t.Errorf("%s: TreeDigest bytes %d differ from the stat walk", rel, n)
		}
	}
	if root, n, _ := TreeDigest(dir); root != tree.Root || n != tree.Bytes {
		t.Errorf("TreeDigest = %s/%d, HashTree = %s/%d", root, n, tree.Root, tree.Bytes)
	}
	if want := treeSize(t, dir); tree.Bytes != want {
		t.Errorf("bytes = %d, stat walk = %d", tree.Bytes, want)
	}
}

// TestTreeDigestStableAcrossProcs pins determinism of the parallel pass: the
// same tree hashes to the same root, bytes and children at GOMAXPROCS 1
// and 4 and on every repeat.
func TestTreeDigestStableAcrossProcs(t *testing.T) {
	dir := t.TempDir()
	writeRotated(t, dir, 12, 200_000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first *Tree
	for _, procs := range []int{1, 4, 1, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 2; rep++ {
			tree, err := HashTree(dir)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = tree
			} else if !reflect.DeepEqual(tree, first) {
				t.Fatalf("GOMAXPROCS=%d rep %d: %+v differs from the first pass %+v", procs, rep, tree, first)
			}
		}
	}
}

// TestTreeDigestStrayFileMovesRootOnly: a file beside the day directories
// of a rotated tree changes the root and no day's digest, so the per-day
// checkpoint keys survive it while the stats key does not.
func TestTreeDigestStrayFileMovesRootOnly(t *testing.T) {
	dir := t.TempDir()
	writeRotated(t, dir, 4, 4000)
	before, err := HashTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("notes\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	after, err := HashTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after.Root == before.Root {
		t.Error("stray top-level file did not change the root")
	}
	if !reflect.DeepEqual(after.Dirs, before.Dirs) {
		t.Errorf("stray top-level file moved a day digest:\nbefore %v\nafter  %v", before.Dirs, after.Dirs)
	}
}

// TestTreeDigestErrors drives the read path's two failures through the
// openFile hook: a file that grows between the walk and its read, and an
// open that fails. Each must surface with no tree and leave no worker
// running.
func TestTreeDigestErrors(t *testing.T) {
	dir := t.TempDir()
	writeRotated(t, dir, 20, 400_000)
	victim := filepath.Join(dir, "2020-007", "dns.log")
	injected := errors.New("injected open failure")
	defer func(orig func(string) (*os.File, error)) { openFile = orig }(openFile)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	for _, tc := range []struct {
		name  string
		open  func(string) (*os.File, error)
		check func(error) bool
	}{
		{"grown mid-pass", func(p string) (*os.File, error) {
			if p == victim {
				f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					return nil, err
				}
				_, err = f.WriteString("late line\n")
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return nil, err
				}
			}
			return os.Open(p)
		}, func(err error) bool { return strings.Contains(err.Error(), "changed while hashing") }},
		{"open fails", func(p string) (*os.File, error) {
			if p == victim {
				return nil, injected
			}
			return os.Open(p)
		}, func(err error) bool { return errors.Is(err, injected) }},
	} {
		base := runtime.NumGoroutine()
		openFile = tc.open
		tree, err := HashTree(dir)
		if err == nil || !tc.check(err) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		if tree != nil {
			t.Errorf("%s: returned a partial tree %+v", tc.name, tree)
		}
		d, n, err := TreeDigest(dir)
		if err == nil || d != "" || n != 0 {
			t.Errorf("%s: TreeDigest = %q, %d, %v; want an error and no digest", tc.name, d, n, err)
		}
		// wg.Wait returns as each worker runs its deferred Done; give the
		// scheduler a moment to retire them before counting.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Errorf("%s: %d goroutines running after the error, %d before", tc.name, g, base)
		}
	}

	if _, err := HashTree(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing root: err = %v, want not-exist", err)
	}
}

// BenchmarkTreeDigest hashes a synthetic rotated tree shaped like the
// paper's window: 121 day directories of four logs each, about 32 MiB.
func BenchmarkTreeDigest(b *testing.B) {
	dir := b.TempDir()
	writeRotated(b, dir, 121, 32<<20)
	_, n, err := TreeDigest(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := TreeDigest(dir); err != nil {
			b.Fatal(err)
		}
	}
}
