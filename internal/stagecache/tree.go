package stagecache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
)

// treeVersion opens every directory node's hash. v1 hashed one flat stream
// of (path, size, content) records; v2 is the Merkle form below, so a v1
// and a v2 digest of the same tree never coincide.
const treeVersion = "stagecache/tree/v2\x00"

// Tree is one pass over a dataset directory: the root's digest, the bytes
// it covers and read, and the digest of every subdirectory under it.
type Tree struct {
	Root Digest
	// Bytes is the size of every file the digest covers. Read is what the
	// pass read to get there: all of Bytes without a digest memo, and only
	// the files whose stat moved with one (Store.HashTree).
	Bytes, Read int64
	// Files counts the regular files under the root, Hashed those read.
	Files, Hashed int
	// Memo is the digest memo's state as the pass found it: "ok",
	// "missing" or "corrupt"; "" for a memo-less pass.
	Memo string
	// Dirs maps each subdirectory's slash-separated path, relative to the
	// root, to its digest: the value TreeDigest returns for that
	// subdirectory on its own.
	Dirs map[string]Digest
}

// TreeDigest digests a dataset directory (HashTree's root) and returns
// the bytes it covers. It reads every file; lockbench calls it as the
// memo-less reference for the keys a run derives.
func TreeDigest(dir string) (Digest, int64, error) {
	t, err := HashTree(dir)
	if err != nil {
		return "", 0, err
	}
	return t.Root, t.Bytes, nil
}

// HashTree digests a directory as a Merkle tree. Every regular file is
// read once, on a pool of GOMAXPROCS workers. A directory's digest covers
// its entries in name order: each entry's name, then a file's size and
// content sum or a subdirectory's digest. Flipping any byte, renaming a
// file, or adding or removing one changes the digest of every directory
// above it and of no other. Other entry types (symlinks, devices) are
// skipped. The first error aborts the pass: no digest is returned and no
// worker outlives the call.
func HashTree(dir string) (*Tree, error) {
	t, _, err := hashTree(dir, nil)
	return t, err
}

// hashTree is HashTree over an optional digest memo: a file the memo
// vouches for takes its sum from it and is not read. It also returns the
// pass's files, for the memo's next version.
func hashTree(dir string, m *digestMemo) (*Tree, []treeFile, error) {
	w := treeWalk{memo: m}
	if _, err := w.scan(dir, ""); err != nil {
		return nil, nil, err
	}
	if err := hashFiles(w.files, w.todo); err != nil {
		return nil, nil, err
	}
	t := &Tree{Files: len(w.files), Hashed: len(w.todo), Dirs: make(map[string]Digest, len(w.dirs)-1)}
	for _, i := range w.todo {
		t.Read += w.files[i].st.size
	}
	sums := make([][sha256.Size]byte, len(w.dirs))
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	// scan appends a directory after its subdirectories, so every child
	// sum is ready when its parent is hashed.
	for i, d := range w.dirs {
		h.Reset()
		io.WriteString(h, treeVersion)
		for _, e := range d.entries {
			n := binary.PutUvarint(buf[:], uint64(len(e.name)))
			h.Write(buf[:n])
			io.WriteString(h, e.name)
			if e.file >= 0 {
				f := &w.files[e.file]
				n = binary.PutUvarint(buf[:], uint64(f.st.size))
				h.Write([]byte{'F'})
				h.Write(buf[:n])
				h.Write(f.sum[:])
				t.Bytes += f.st.size
			} else {
				h.Write([]byte{'D'})
				h.Write(sums[e.dir][:])
			}
		}
		h.Sum(sums[i][:0])
		if d.rel != "" {
			t.Dirs[d.rel] = Digest(hex.EncodeToString(sums[i][:]))
		}
	}
	t.Root = Digest(hex.EncodeToString(sums[len(sums)-1][:]))
	return t, w.files, nil
}

// treeWalk is the serial half of HashTree: the directory structure in
// post-order, the flat list of files, and the indices of those the memo
// did not vouch for, which the workers hash.
type treeWalk struct {
	memo  *digestMemo
	dirs  []treeDir
	files []treeFile
	todo  []int
}

type treeDir struct {
	rel     string // slash-separated path from the root; "" for the root
	entries []treeEntry
}

// treeEntry is one named child: a file (index into files) or, when file
// is -1, a subdirectory (index into dirs).
type treeEntry struct {
	name      string
	file, dir int
}

type treeFile struct {
	path    string
	st      stamp // st.size is always set, the rest only when stamped
	stamped bool
	sum     [sha256.Size]byte
}

// scan records dir (at rel under the root) after all of its
// subdirectories and returns its index in w.dirs.
func (w *treeWalk) scan(dir, rel string) (int, error) {
	ents, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return 0, err
	}
	var entries []treeEntry
	for _, e := range ents {
		p := filepath.Join(dir, e.Name())
		switch {
		case e.IsDir():
			child, err := w.scan(p, path.Join(rel, e.Name()))
			if err != nil {
				return 0, err
			}
			entries = append(entries, treeEntry{name: e.Name(), file: -1, dir: child})
		case e.Type().IsRegular():
			fi, err := e.Info()
			if err != nil {
				return 0, err
			}
			f := treeFile{path: p}
			f.st, f.stamped = fileStamp(fi)
			if !w.memo.reuse(&f) {
				w.todo = append(w.todo, len(w.files))
			}
			entries = append(entries, treeEntry{name: e.Name(), file: len(w.files)})
			w.files = append(w.files, f)
		}
	}
	w.dirs = append(w.dirs, treeDir{rel: rel, entries: entries})
	return len(w.dirs) - 1, nil
}

// openFile opens a file for hashing; tests replace it to fault the read.
var openFile = os.Open

// hashFiles fills the content sum of every file todo names on a pool of
// GOMAXPROCS workers. The first error stops the pool; hashFiles returns it
// once every worker has exited.
func hashFiles(files []treeFile, todo []int) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		first  error
		once   sync.Once
		wg     sync.WaitGroup
	)
	for range min(runtime.GOMAXPROCS(0), len(todo)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, buf := sha256.New(), make([]byte, 64<<10)
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(todo) {
					return
				}
				if err := files[todo[i]].hash(h, buf); err != nil {
					once.Do(func() { first = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// hash reads the file once into h and records its sum. A byte count that
// differs from the size the walk saw means the file changed mid-pass.
func (f *treeFile) hash(h hash.Hash, buf []byte) error {
	r, err := openFile(f.path)
	if err != nil {
		return err
	}
	defer r.Close()
	h.Reset()
	// Hide *os.File's WriteTo so the copy uses buf instead of allocating.
	n, err := io.CopyBuffer(h, struct{ io.Reader }{r}, buf)
	if err != nil {
		return err
	}
	if n != f.st.size {
		return fmt.Errorf("stagecache: %s changed while hashing", f.path)
	}
	h.Sum(f.sum[:0])
	return nil
}
