package stagecache

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// requireStamps skips a test where the stat carries no inode or ctime:
// there the memo vouches for nothing and every file is hashed.
func requireStamps(t *testing.T) {
	t.Helper()
	fi, err := os.Stat(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fileStamp(fi); !ok {
		t.Skip("no inode and ctime in this system's stat")
	}
}

// waitPastCtime returns once the filesystem clock has passed the newest
// ctime under each path, so a pass that starts afterwards takes a
// reference time its memo entries are strictly older than. It touches a
// fresh probe file until the probe's mtime is greater.
func waitPastCtime(t testing.TB, paths ...string) {
	t.Helper()
	var newest int64
	for _, p := range paths {
		err := filepath.Walk(p, func(_ string, fi os.FileInfo, err error) error {
			if err == nil {
				st, _ := fileStamp(fi)
				newest = max(newest, st.ctime)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
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
		if st, _ := fileStamp(fi); st.mtime > newest {
			return
		}
	}
	t.Fatal("the filesystem clock did not pass the tree's newest ctime")
}

// memoPass is one process's keying pass: a fresh store over cacheDir
// hashing dir through the memo.
func memoPass(t *testing.T, cacheDir, dir string) *Tree {
	t.Helper()
	s, err := Open(cacheDir, ModeReadWrite, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := s.HashTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// wantMemoLess checks a memo pass's digests against a memo-less HashTree
// of the same tree.
func wantMemoLess(t *testing.T, label, dir string, got *Tree) {
	t.Helper()
	want, err := HashTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != want.Root || got.Bytes != want.Bytes || !reflect.DeepEqual(got.Dirs, want.Dirs) {
		t.Errorf("%s: memo pass root %s over %d bytes, memo-less %s over %d", label, got.Root, got.Bytes, want.Root, want.Bytes)
	}
}

// wantHashed checks how many files a pass read, and how many bytes.
func wantHashed(t *testing.T, label string, tree *Tree, files int, bytes int64) {
	t.Helper()
	if tree.Hashed != files || tree.Read != bytes {
		t.Errorf("%s: hashed %d files, %d bytes; want %d files, %d bytes", label, tree.Hashed, tree.Read, files, bytes)
	}
}

// warmMemo builds a rotated tree and a cache whose memo vouches for all
// of it, checked by a second pass that reads nothing.
func warmMemo(t *testing.T, days int) (dir, cacheDir string) {
	t.Helper()
	requireStamps(t)
	dir, cacheDir = t.TempDir(), t.TempDir()
	writeRotated(t, dir, days, 40_000)
	waitPastCtime(t, dir)
	cold := memoPass(t, cacheDir, dir)
	if cold.Memo != "missing" || cold.Hashed != cold.Files || cold.Read != cold.Bytes {
		t.Fatalf("cold pass: memo %q, hashed %d of %d files, read %d of %d bytes", cold.Memo, cold.Hashed, cold.Files, cold.Read, cold.Bytes)
	}
	warm := memoPass(t, cacheDir, dir)
	if warm.Memo != "ok" || warm.Root != cold.Root {
		t.Fatalf("warm pass: memo %q, root %s, cold root %s", warm.Memo, warm.Root, cold.Root)
	}
	wantHashed(t, "warm pass", warm, 0, 0)
	return dir, cacheDir
}

// TestMemoInPlaceEditMovesKey flips one byte of an old day in place and
// sets the file's mtime back: size, inode and mtime match the memo, but
// the write moved the ctime, so the file is read again and the root and
// that day's digest move.
func TestMemoInPlaceEditMovesKey(t *testing.T) {
	dir, cacheDir := warmMemo(t, 4)
	before, err := HashTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, "2020-001", "dns.log")
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(victim, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, 100); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1
	if _, err := f.WriteAt(b, 100); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(victim, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}

	after := memoPass(t, cacheDir, dir)
	wantHashed(t, "in-place edit", after, 1, fi.Size())
	if after.Root == before.Root || after.Dirs["2020-001"] == before.Dirs["2020-001"] {
		t.Errorf("in-place edit with the mtime restored left the root or its day's digest unchanged")
	}
	wantMemoLess(t, "in-place edit", dir, after)
}

// TestMemoRenameReplacementRehashed replaces a file by rename with one of
// the same size and mtime: a new inode, so it is read again.
func TestMemoRenameReplacementRehashed(t *testing.T) {
	dir, cacheDir := warmMemo(t, 4)
	victim := filepath.Join(dir, "2020-002", "conn.log")
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	repl := make([]byte, len(old))
	for i := range repl {
		repl[i] = 'x'
	}
	tmp := filepath.Join(t.TempDir(), "conn.log")
	if err := os.WriteFile(tmp, repl, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(tmp, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, victim); err != nil {
		t.Fatal(err)
	}

	after := memoPass(t, cacheDir, dir)
	wantHashed(t, "rename replacement", after, 1, fi.Size())
	wantMemoLess(t, "rename replacement", dir, after)
}

// TestMemoRacyEntriesRehashed pins the racy-git rule: an entry whose
// file's mtime or ctime is not strictly older than the memo's reference
// time is read again even though its stat matches. Each case writes a
// memo of true sums whose reference time equals one file's mtime or ctime.
func TestMemoRacyEntriesRehashed(t *testing.T) {
	requireStamps(t)
	for _, tc := range []struct {
		name string
		// touch sets the victim's mtime and returns the reference time.
		touch func(t *testing.T, dir, victim string) int64
	}{
		{"mtime at the reference time", func(t *testing.T, _, victim string) int64 {
			future := time.Now().Add(time.Hour)
			if err := os.Chtimes(victim, future, future); err != nil {
				t.Fatal(err)
			}
			return statStamp(t, victim).mtime
		}},
		{"ctime at the reference time", func(t *testing.T, dir, victim string) int64 {
			waitPastCtime(t, dir)
			past := time.Now().Add(-time.Hour)
			if err := os.Chtimes(victim, past, past); err != nil {
				t.Fatal(err)
			}
			return statStamp(t, victim).ctime
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, cacheDir := t.TempDir(), t.TempDir()
			writeRotated(t, dir, 3, 30_000)
			victim := filepath.Join(dir, "2020-001", "http.log")
			ref := tc.touch(t, dir, victim)
			writeTrueMemo(t, cacheDir, dir, ref)

			tree := memoPass(t, cacheDir, dir)
			wantHashed(t, tc.name, tree, 1, statStamp(t, victim).size)
			wantMemoLess(t, tc.name, dir, tree)
		})
	}
}

func statStamp(t *testing.T, path string) stamp {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := fileStamp(fi)
	if !ok {
		t.Fatalf("%s: no stamp", path)
	}
	return st
}

// writeTrueMemo writes a memo with reference time ref holding every file
// under dir with its current stat and true sum.
func writeTrueMemo(t *testing.T, cacheDir, dir string, ref int64) {
	t.Helper()
	entries := map[string]memoEntry{}
	err := filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err != nil || !fi.Mode().IsRegular() {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			return err
		}
		entries[abs] = memoEntry{st: statStamp(t, p), sum: sha256.Sum256(b)}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cacheDir, memoName), encodeMemo(ref, entries), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMemoDamagedOrForeignFullHash: a memo that is truncated, bit-flipped
// or of another version reads as corrupt, and one whose entries name
// another device or inode vouches for nothing. Each gives a full hash and
// the memo-less digests, never other ones.
func TestMemoDamagedOrForeignFullHash(t *testing.T) {
	dir, cacheDir := warmMemo(t, 3)
	path := filepath.Join(cacheDir, memoName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reseal := func(body []byte) []byte {
		sum := sha256.Sum256(body)
		return append(body, sum[:]...)
	}
	foreign := func(mut func(*stamp)) []byte {
		ref, entries, err := decodeMemo(good)
		if err != nil {
			t.Fatal(err)
		}
		for p, e := range entries {
			mut(&e.st)
			entries[p] = e
		}
		return encodeMemo(ref, entries)
	}
	body := good[:len(good)-sha256.Size]
	for _, tc := range []struct {
		name  string
		memo  []byte
		state string
	}{
		{"truncated", good[:len(good)/2], "corrupt"},
		// The last byte of the last entry's sum: a memo read without its
		// checksum would hand that file a wrong sum.
		{"bit-flipped", func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-sha256.Size-1] ^= 1
			return b
		}(), "corrupt"},
		{"wrong version", func() []byte {
			b := append([]byte(nil), body...)
			b[len(memoMagic)] = memoVersion + 1
			return reseal(b)
		}(), "corrupt"},
		{"other device", foreign(func(st *stamp) { st.dev++ }), "ok"},
		{"other inode", foreign(func(st *stamp) { st.ino++ }), "ok"},
	} {
		if err := os.WriteFile(path, tc.memo, 0o644); err != nil {
			t.Fatal(err)
		}
		tree := memoPass(t, cacheDir, dir)
		if tree.Memo != tc.state {
			t.Errorf("%s: memo state %q, want %q", tc.name, tree.Memo, tc.state)
		}
		wantHashed(t, tc.name, tree, tree.Files, tree.Bytes)
		wantMemoLess(t, tc.name, dir, tree)
	}
}

// TestMemoAppendReadsOnlyNewDay: after a warm pass, a day directory that
// lands costs exactly its own bytes.
func TestMemoAppendReadsOnlyNewDay(t *testing.T) {
	dir, cacheDir := warmMemo(t, 5)
	fresh := t.TempDir()
	writeRotated(t, fresh, 6, 48_000)
	day := "2020-005"
	if err := os.Rename(filepath.Join(fresh, day), filepath.Join(dir, day)); err != nil {
		t.Fatal(err)
	}
	tree := memoPass(t, cacheDir, dir)
	wantHashed(t, "appended day", tree, len(dayFiles), treeSize(t, filepath.Join(dir, day)))
	wantMemoLess(t, "appended day", dir, tree)
}

// TestStoreCodeDigestMemo: the store's code digest is the package one,
// and a second process over the same cache takes it from the memo
// without opening the executable.
func TestStoreCodeDigestMemo(t *testing.T) {
	requireStamps(t)
	want, err := CodeDigest()
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	waitPastCtime(t, exe)
	cacheDir := t.TempDir()
	codeDigest := func(pass string) {
		t.Helper()
		s, err := Open(cacheDir, ModeReadWrite, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.CodeDigest(); err != nil || got != want {
			t.Fatalf("%s: store CodeDigest = %s, %v; want %s", pass, got, err, want)
		}
	}
	codeDigest("cold")
	defer func(orig func(string) (*os.File, error)) { openFile = orig }(openFile)
	openFile = func(p string) (*os.File, error) {
		if p == exe {
			return nil, errors.New("executable read again")
		}
		return os.Open(p)
	}
	codeDigest("warm")
}
