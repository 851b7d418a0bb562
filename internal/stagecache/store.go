package stagecache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/obs"
)

// StoreVersion is the on-disk layout version. A store written by a
// different version reads as a verify failure (and a recompute), never as
// data.
const StoreVersion = 1

// Mode controls what the store is allowed to do.
type Mode uint8

const (
	// ModeOff disables the cache entirely.
	ModeOff Mode = iota
	// ModeRead serves hits but never writes (useful for proving a
	// populated cache is sufficient, and for read-only cache volumes).
	ModeRead
	// ModeReadWrite serves hits and persists misses — the default.
	ModeReadWrite
)

var modeNames = map[Mode]string{ModeOff: "off", ModeRead: "read", ModeReadWrite: "readwrite"}

// String returns the mode's flag spelling.
func (m Mode) String() string {
	if n, ok := modeNames[m]; ok {
		return n
	}
	return "unknown"
}

// ParseMode parses a -cache-mode flag value.
func ParseMode(s string) (Mode, error) {
	for m, n := range modeNames {
		if n == s {
			return m, nil
		}
	}
	return ModeOff, fmt.Errorf("stagecache: unknown mode %q (want off, read or readwrite)", s)
}

// ErrCorrupt marks a cache entry that failed verification (checksum
// mismatch, truncation, manifest damage, version skew). Callers treat it
// as a miss; the store has already counted the verify failure.
var ErrCorrupt = errors.New("stagecache: entry failed verification")

// manifest describes one committed cache entry. It is written last inside
// the staging directory, so an entry directory without a well-formed
// manifest is by construction a torn write and reads as a plain miss.
type manifest struct {
	Version int    `json:"version"`
	Stage   string `json:"stage"`
	Key     string `json:"key"`
	// Inputs records the digests the key was derived from, for humans
	// debugging an invalidation ("which input moved?").
	Inputs map[string]string `json:"inputs,omitempty"`
	Files  []fileEntry       `json:"files"`
}

type fileEntry struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// index is the per-stage manifest of committed keys. Latest distinguishes
// an invalidation (the stage has an entry, just not for this key) from a
// cold miss.
type index struct {
	Version int      `json:"version"`
	Latest  string   `json:"latest"`
	Entries []string `json:"entries"`
}

// Counters is a point-in-time snapshot of the store's accounting.
type Counters struct {
	Hits           int64
	Misses         int64
	Invalidations  int64
	VerifyFailures int64
}

// Store is the on-disk cache. All methods are safe on a nil receiver
// (ModeOff semantics), mirroring the nil-*Metrics idiom, so callers thread
// a possibly-nil *Store without branching.
type Store struct {
	dir  string
	mode Mode

	// The store's accounting, registered with the run's obs.Metrics under
	// the cache_* names: Counters and every obs snapshot read these same
	// cells. hits + misses == stage lookups; invalidations and verify
	// failures are subsets of misses.
	hits           obs.Counter
	misses         obs.Counter
	invalidations  obs.Counter
	verifyFailures obs.Counter
}

// Open prepares a store rooted at dir. ModeOff returns a nil store.
// Opening in a writable mode sweeps leftover staging directories from
// torn runs — they were never committed, so removing them is always safe.
// The store's counters are registered with om under the cache_* names; a
// nil om registers nothing, and Counters works either way.
func Open(dir string, mode Mode, om *obs.Metrics) (*Store, error) {
	if mode == ModeOff {
		return nil, nil
	}
	s := &Store{dir: dir, mode: mode}
	if mode == ModeReadWrite {
		if err := os.MkdirAll(s.tmpDir(), 0o755); err != nil {
			return nil, err
		}
		entries, err := os.ReadDir(s.tmpDir())
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			os.RemoveAll(filepath.Join(s.tmpDir(), e.Name()))
		}
	}
	om.Register("cache_hits", &s.hits)
	om.Register("cache_misses", &s.misses)
	om.Register("cache_invalidations", &s.invalidations)
	om.Register("cache_verify_failures", &s.verifyFailures)
	return s, nil
}

// Dir returns the store root ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Mode returns the store's mode (ModeOff for a nil store).
func (s *Store) Mode() Mode {
	if s == nil {
		return ModeOff
	}
	return s.mode
}

func (s *Store) tmpDir() string               { return filepath.Join(s.dir, "tmp") }
func (s *Store) stageDir(stage string) string { return filepath.Join(s.dir, filepath.FromSlash(stage)) }
func (s *Store) entryDir(stage string, key Digest) string {
	return filepath.Join(s.stageDir(stage), string(key))
}

// Counters returns the store's accounting so far.
func (s *Store) Counters() Counters {
	if s == nil {
		return Counters{}
	}
	return Counters{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Invalidations:  s.invalidations.Load(),
		VerifyFailures: s.verifyFailures.Load(),
	}
}

func (s *Store) noteMiss(stage string, key Digest) {
	s.misses.Add(1)
	// An invalidation is a miss on a stage that has committed entries,
	// just not this key: some input moved since the last run.
	if idx, err := s.readIndex(stage); err == nil && idx.Latest != "" && idx.Latest != string(key) {
		s.invalidations.Add(1)
	}
}

// readIndex loads a stage's index (zero value when absent).
func (s *Store) readIndex(stage string) (index, error) {
	var idx index
	data, err := os.ReadFile(filepath.Join(s.stageDir(stage), "index.json"))
	if err != nil {
		return idx, err
	}
	if err := json.Unmarshal(data, &idx); err != nil {
		return idx, err
	}
	return idx, nil
}

// loadManifest reads and structurally verifies an entry's manifest.
// A missing manifest is a plain miss (torn write); a damaged or
// version-skewed one is ErrCorrupt.
func (s *Store) loadManifest(stage string, key Digest) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(s.entryDir(stage, key), "manifest.json"))
	if err != nil {
		return nil, err // fs.ErrNotExist → plain miss
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: bad manifest: %v", ErrCorrupt, err)
	}
	if m.Version != StoreVersion {
		return nil, fmt.Errorf("%w: store version %d, want %d", ErrCorrupt, m.Version, StoreVersion)
	}
	if m.Stage != stage || m.Key != string(key) {
		return nil, fmt.Errorf("%w: manifest names %s/%s, want %s/%s", ErrCorrupt, m.Stage, m.Key, stage, key)
	}
	return &m, nil
}

// verifyFile checks one payload against its manifest entry and returns
// its content.
func verifyFile(dir string, fe fileEntry) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(fe.Name)))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, fe.Name, err)
	}
	if int64(len(b)) != fe.Size {
		return nil, fmt.Errorf("%w: %s: size %d, want %d", ErrCorrupt, fe.Name, len(b), fe.Size)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != fe.SHA256 {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, fe.Name)
	}
	return b, nil
}

// GetBytes fetches and fully verifies an entry, returning its payloads by
// name. validate, when non-nil, runs after the checksum pass and may
// reject the payloads (a payload-codec version skew the store's own
// checksums cannot see) — its error counts as a verify failure, so the
// hit/miss/verify accounting always reflects what the caller actually
// used. ok is false on a miss and on any verification failure (counted).
func (s *Store) GetBytes(stage string, key Digest, validate func(map[string][]byte) error) (map[string][]byte, bool) {
	if s == nil {
		return nil, false
	}
	m, err := s.loadManifest(stage, key)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			s.verifyFailures.Add(1)
		}
		s.noteMiss(stage, key)
		return nil, false
	}
	dir := s.entryDir(stage, key)
	files := make(map[string][]byte, len(m.Files))
	for _, fe := range m.Files {
		b, err := verifyFile(dir, fe)
		if err != nil {
			s.verifyFailures.Add(1)
			s.noteMiss(stage, key)
			return nil, false
		}
		files[fe.Name] = b
	}
	if validate != nil {
		if err := validate(files); err != nil {
			s.verifyFailures.Add(1)
			s.noteMiss(stage, key)
			return nil, false
		}
	}
	s.hits.Add(1)
	return files, true
}

// GetDir fetches an entry whose payload is a file tree, verifying every
// file while streaming it into dstDir (created if needed). On any
// verification failure the partial copy is removed and ok is false.
func (s *Store) GetDir(stage string, key Digest, dstDir string) bool {
	if s == nil {
		return false
	}
	m, err := s.loadManifest(stage, key)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			s.verifyFailures.Add(1)
		}
		s.noteMiss(stage, key)
		return false
	}
	srcDir := s.entryDir(stage, key)
	if err := copyVerified(srcDir, dstDir, m.Files); err != nil {
		os.RemoveAll(dstDir)
		if errors.Is(err, ErrCorrupt) {
			s.verifyFailures.Add(1)
		}
		s.noteMiss(stage, key)
		return false
	}
	s.hits.Add(1)
	return true
}

func copyVerified(srcDir, dstDir string, files []fileEntry) error {
	for _, fe := range files {
		src := filepath.Join(srcDir, filepath.FromSlash(fe.Name))
		dst := filepath.Join(dstDir, filepath.FromSlash(fe.Name))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		in, err := os.Open(src)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, fe.Name, err)
		}
		out, err := os.Create(dst)
		if err != nil {
			in.Close()
			return err
		}
		h := sha256.New()
		n, err := io.Copy(io.MultiWriter(out, h), in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if n != fe.Size {
			return fmt.Errorf("%w: %s: size %d, want %d", ErrCorrupt, fe.Name, n, fe.Size)
		}
		if hex.EncodeToString(h.Sum(nil)) != fe.SHA256 {
			return fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, fe.Name)
		}
	}
	return nil
}

// Writable reports whether Put calls will persist.
func (s *Store) Writable() bool { return s != nil && s.mode == ModeReadWrite }

// PutBytes commits an entry with in-memory payloads. The entry is staged
// under tmp/ and renamed into place in one step: a crash at any point
// leaves either no entry or a complete, verifiable one. Not writable
// modes are a no-op.
func (s *Store) PutBytes(stage string, key Digest, inputs map[string]Digest, files map[string][]byte) error {
	if !s.Writable() {
		return nil
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return s.commit(stage, key, inputs, names, func(dst string, name string) (int64, string, error) {
		b := files[name]
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			return 0, "", err
		}
		sum := sha256.Sum256(b)
		return int64(len(b)), hex.EncodeToString(sum[:]), nil
	})
}

// PutDir commits an entry whose payload is the file tree rooted at
// srcDir (every regular file, relative slash-separated names).
func (s *Store) PutDir(stage string, key Digest, inputs map[string]Digest, srcDir string) error {
	if !s.Writable() {
		return nil
	}
	var names []string
	err := filepath.WalkDir(srcDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			rel, err := filepath.Rel(srcDir, path)
			if err != nil {
				return err
			}
			names = append(names, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(names)
	return s.commit(stage, key, inputs, names, func(dst string, name string) (int64, string, error) {
		in, err := os.Open(filepath.Join(srcDir, filepath.FromSlash(name)))
		if err != nil {
			return 0, "", err
		}
		defer in.Close()
		out, err := os.Create(dst)
		if err != nil {
			return 0, "", err
		}
		h := sha256.New()
		n, err := io.Copy(io.MultiWriter(out, h), in)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, "", err
		}
		return n, hex.EncodeToString(h.Sum(nil)), nil
	})
}

// commit stages the entry (payloads first, manifest last), renames it into
// place, and updates the stage index.
func (s *Store) commit(stage string, key Digest, inputs map[string]Digest, names []string, write func(dst, name string) (int64, string, error)) error {
	staging, err := os.MkdirTemp(s.tmpDir(), "put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(staging)
	m := &manifest{Version: StoreVersion, Stage: stage, Key: string(key)}
	if len(inputs) > 0 {
		m.Inputs = make(map[string]string, len(inputs))
		for k, v := range inputs {
			m.Inputs[k] = string(v)
		}
	}
	for _, name := range names {
		dst := filepath.Join(staging, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		size, sum, err := write(dst, name)
		if err != nil {
			return err
		}
		m.Files = append(m.Files, fileEntry{Name: name, Size: size, SHA256: sum})
	}
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(staging, "manifest.json"), append(mb, '\n'), 0o644); err != nil {
		return err
	}
	final := s.entryDir(stage, key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return err
	}
	// Replace any existing (possibly corrupt) entry wholesale; the rename
	// is the commit point.
	if err := os.RemoveAll(final); err != nil {
		return err
	}
	if err := os.Rename(staging, final); err != nil {
		return err
	}
	return s.updateIndex(stage, key)
}

// updateIndex records key as the stage's latest entry (written via a
// temp file + rename so the index is never seen half-written).
func (s *Store) updateIndex(stage string, key Digest) error {
	idx, _ := s.readIndex(stage)
	idx.Version = StoreVersion
	idx.Latest = string(key)
	found := false
	for _, e := range idx.Entries {
		if e == string(key) {
			found = true
			break
		}
	}
	if !found {
		idx.Entries = append(idx.Entries, string(key))
		sort.Strings(idx.Entries)
	}
	b, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.tmpDir(), "index-")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, werr := tmp.Write(append(b, '\n'))
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(name)
		return werr
	}
	return os.Rename(name, filepath.Join(s.stageDir(stage), "index.json"))
}

// Summary renders the store's accounting for an end-of-run status line,
// e.g. "dir=cache mode=readwrite hits=2 misses=0 invalidations=0 verify_failures=0".
func (s *Store) Summary() string {
	if s == nil {
		return "mode=off"
	}
	c := s.Counters()
	return fmt.Sprintf("dir=%s mode=%s hits=%d misses=%d invalidations=%d verify_failures=%d",
		s.dir, s.mode, c.Hits, c.Misses, c.Invalidations, c.VerifyFailures)
}
