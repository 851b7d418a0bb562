package stagecache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// The digest memo is git's index for the stage cache: for each file the
// last pass saw, the file's stat (device, inode, size, mtime and ctime in
// ns) and its sha256. A file whose stat still matches is not read again.
// The memo changes how often content is read, never what a key covers: a
// reused sum is the sum of the bytes the file held when it was read, and
// the Merkle fold over the sums is the same.
//
// A stat can stay the same while the bytes move in two ways, and the
// memo closes both:
//   - A write in the same tick of the filesystem clock as the pass that
//     hashed the file keeps its stat (the "racy" case of git's index,
//     racy-git.txt). Each memo records a reference time: the mtime of a
//     probe file its pass created under tmp/ before it scanned. An entry
//     is trusted only if the file's mtime and ctime are both strictly
//     older. A later write stamps the file at or after that time, so the
//     stat no longer matches.
//   - A tool can set the mtime back (touch -d, os.Chtimes), but the kernel
//     sets the ctime on every write or chmod, and nothing sets it back.
//     Only a ctime set back with the system clock, or a filesystem image
//     restored with its old ctimes, can fool the memo, as it fools git.
//     After that, touch the moved files or delete the memo file.
//
// The memo is one versioned, checksummed file in the cache directory,
// written through a temp file and a rename with no fsync. A torn,
// damaged or foreign memo costs a full hash, never a wrong sum. It is not
// a stage entry: it moves none of the store's counters.
const (
	memoName    = "digests.memo"
	memoMagic   = "stagecache/memo\x00"
	memoVersion = 1
)

// stamp is the part of a file's stat the memo compares.
type stamp struct {
	dev, ino           uint64
	size, mtime, ctime int64
}

// trusted reports whether a memo whose reference time is ref may vouch
// for a file with this stamp: its mtime and ctime are strictly older.
func (st stamp) trusted(ref int64) bool { return st.mtime < ref && st.ctime < ref }

type memoEntry struct {
	st  stamp
	sum [sha256.Size]byte
}

// digestMemo is one pass's view of the memo file. A pass loads it, reads
// only the files it cannot vouch for, and writes the next version; the
// store holds nothing between passes.
type digestMemo struct {
	// ref is this pass's reference time: the probe's mtime (0, which
	// trusts nothing, where the stat has no stamp).
	ref int64
	// entries holds the memo file's trusted entries by absolute path.
	entries map[string]memoEntry
	state   string // the memo file as loaded: "ok", "missing" or "corrupt"
}

// reuse fills f's sum from the entry for its path when the stamps match.
func (m *digestMemo) reuse(f *treeFile) bool {
	if m == nil || !f.stamped {
		return false
	}
	e, ok := m.entries[f.path]
	if !ok || e.st != f.st {
		return false
	}
	f.sum = e.sum
	return true
}

// keep returns the entry this pass records for f, and whether its stamp
// is old enough to record.
func (m *digestMemo) keep(f *treeFile) (memoEntry, bool) {
	return memoEntry{st: f.st, sum: f.sum}, f.stamped && f.st.trusted(m.ref)
}

// openMemo starts a pass: it takes the reference time from a probe file
// under tmp/, then loads the memo file.
func (s *Store) openMemo() (*digestMemo, error) {
	probe, err := os.CreateTemp(s.tmpDir(), "probe-")
	if err != nil {
		return nil, err
	}
	fi, err := probe.Stat()
	probe.Close()
	os.Remove(probe.Name())
	if err != nil {
		return nil, err
	}
	m := &digestMemo{entries: map[string]memoEntry{}, state: "missing"}
	if st, ok := fileStamp(fi); ok {
		m.ref = st.mtime
	}
	b, err := os.ReadFile(filepath.Join(s.dir, memoName))
	if errors.Is(err, fs.ErrNotExist) {
		return m, nil
	}
	m.state = "corrupt"
	if err != nil {
		return m, nil
	}
	ref, entries, err := decodeMemo(b)
	if err != nil {
		return m, nil
	}
	for p, e := range entries {
		if !e.st.trusted(ref) {
			delete(entries, p)
		}
	}
	m.entries, m.state = entries, "ok"
	return m, nil
}

// writeMemo replaces the memo file with m's entries under this pass's
// reference time.
func (s *Store) writeMemo(m *digestMemo) error {
	return s.writeRenamed(filepath.Join(s.dir, memoName), "memo-", encodeMemo(m.ref, m.entries))
}

// HashTree is the package HashTree through the store's digest memo: a
// file whose stat matches its trusted entry takes its sum from the memo
// and is not read. The memo is then rewritten to hold this pass's files
// and the executable. The digests are those of a memo-less pass; Read,
// Hashed and Memo report what the memo saved. On a nil store it is the
// memo-less pass.
func (s *Store) HashTree(dir string) (*Tree, error) {
	if s == nil {
		return HashTree(dir)
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	m, err := s.openMemo()
	if err != nil {
		return nil, err
	}
	t, files, err := hashTree(dir, m)
	if err != nil {
		return nil, err
	}
	t.Memo = m.state
	// The executable's entry carries over; without its path there is none.
	exe, _ := os.Executable()
	exeEntry, hasExe := m.entries[exe]
	clear(m.entries)
	if hasExe {
		m.entries[exe] = exeEntry
	}
	for i := range files {
		if e, ok := m.keep(&files[i]); ok {
			m.entries[files[i].path] = e
		}
	}
	return t, s.writeMemo(m)
}

// CodeDigest is the package CodeDigest through the store's digest memo,
// keyed by the executable's path and stat: a process whose binary the
// memo vouches for does not read it. On a nil store it is the package
// CodeDigest.
func (s *Store) CodeDigest() (Digest, error) {
	if s == nil {
		return CodeDigest()
	}
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	m, err := s.openMemo()
	if err != nil {
		return "", err
	}
	fi, err := os.Stat(exe)
	if err != nil {
		return "", err
	}
	f := treeFile{path: exe}
	f.st, f.stamped = fileStamp(fi)
	if !m.reuse(&f) {
		if err := f.hash(sha256.New(), make([]byte, 64<<10)); err != nil {
			return "", err
		}
		if e, ok := m.keep(&f); ok {
			m.entries[exe] = e
			if err := s.writeMemo(m); err != nil {
				return "", err
			}
		}
	}
	return Digest(hex.EncodeToString(f.sum[:])), nil
}

// encodeMemo lays out a memo: magic, version, reference time, the entries
// in path order, then the sha256 of everything before it.
func encodeMemo(ref int64, entries map[string]memoEntry) []byte {
	paths := make([]string, 0, len(entries))
	for p := range entries {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	size := len(memoMagic) + 1 + 2*binary.MaxVarintLen64 + sha256.Size
	for _, p := range paths {
		size += len(p) + 6*binary.MaxVarintLen64 + sha256.Size
	}
	b := append(make([]byte, 0, size), memoMagic...)
	b = append(b, memoVersion)
	b = binary.AppendVarint(b, ref)
	b = binary.AppendUvarint(b, uint64(len(paths)))
	for _, p := range paths {
		e := entries[p]
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
		b = binary.AppendUvarint(b, e.st.dev)
		b = binary.AppendUvarint(b, e.st.ino)
		b = binary.AppendVarint(b, e.st.size)
		b = binary.AppendVarint(b, e.st.mtime)
		b = binary.AppendVarint(b, e.st.ctime)
		b = append(b, e.sum[:]...)
	}
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

var errMemo = errors.New("stagecache: damaged digest memo")

// decodeMemo checks a memo's length, checksum, magic and version and
// returns its reference time and entries.
func decodeMemo(b []byte) (int64, map[string]memoEntry, error) {
	if len(b) < len(memoMagic)+1+sha256.Size {
		return 0, nil, errMemo
	}
	body := b[:len(b)-sha256.Size]
	if sha256.Sum256(body) != [sha256.Size]byte(b[len(body):]) ||
		!strings.HasPrefix(string(body), memoMagic) || body[len(memoMagic)] != memoVersion {
		return 0, nil, errMemo
	}
	r := memoReader{b: body[len(memoMagic)+1:]}
	ref := r.varint()
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		return 0, nil, errMemo
	}
	entries := make(map[string]memoEntry, n)
	for ; n > 0 && !r.bad; n-- {
		p := string(r.next(r.uvarint()))
		e := memoEntry{st: stamp{dev: r.uvarint(), ino: r.uvarint(), size: r.varint(), mtime: r.varint(), ctime: r.varint()}}
		copy(e.sum[:], r.next(sha256.Size))
		entries[p] = e
	}
	if r.bad || len(r.b) != 0 {
		return 0, nil, errMemo
	}
	return ref, entries, nil
}

// memoReader reads a memo's fields; the first short or malformed field
// sets bad and empties the rest.
type memoReader struct {
	b   []byte
	bad bool
}

func (r *memoReader) fail() { r.bad, r.b = true, nil }

func (r *memoReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *memoReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *memoReader) next(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}
