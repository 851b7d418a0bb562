package stagecache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/obs"
)

// StoreVersion is the on-disk layout version. A store written by a
// different version reads as a verify failure (and a recompute), never as
// data.
const StoreVersion = 1

// Mode is the store's access mode. A store always serves hits and
// persists misses; leaving the cache directory out is how a run turns
// caching off. The type keeps its one value for lockbench, whose cached
// repeat (bench/traced.go) opens the store with ModeReadWrite.
type Mode uint8

// ModeReadWrite serves hits and persists misses.
const ModeReadWrite Mode = 0

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

// Store is the on-disk cache. All methods are safe on a nil receiver (a
// cache that is off), mirroring the nil-*Metrics idiom, so callers thread
// a possibly-nil *Store without branching.
type Store struct {
	dir string

	// The store's accounting, registered with the run's obs.Metrics under
	// the cache_* names: Counters and every obs snapshot read these same
	// cells. hits + misses == stage lookups; invalidations and verify
	// failures are subsets of misses.
	hits           obs.Counter
	misses         obs.Counter
	invalidations  obs.Counter
	verifyFailures obs.Counter
}

// Open prepares a store rooted at dir and sweeps leftover staging
// directories from torn runs — they were never committed, so removing
// them is always safe. The store's counters are registered with om under
// the cache_* names; a nil om registers nothing, and Counters works
// either way.
func Open(dir string, _ Mode, om *obs.Metrics) (*Store, error) {
	s := &Store{dir: dir}
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
	om.Register("cache_hits", &s.hits)
	om.Register("cache_misses", &s.misses)
	om.Register("cache_invalidations", &s.invalidations)
	om.Register("cache_verify_failures", &s.verifyFailures)
	return s, nil
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

// PutBytes commits an entry with in-memory payloads. The payloads are
// staged under tmp/ (manifest last) and the entry is renamed into place in
// one step: a crash at any point leaves either no entry or a complete,
// verifiable one. On a nil store it is a no-op.
func (s *Store) PutBytes(stage string, key Digest, inputs map[string]Digest, files map[string][]byte) error {
	if s == nil {
		return nil
	}
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
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := files[name]
		if err := os.WriteFile(filepath.Join(staging, name), b, 0o644); err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		m.Files = append(m.Files, fileEntry{Name: name, Size: int64(len(b)), SHA256: hex.EncodeToString(sum[:])})
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
	return s.writeRenamed(filepath.Join(s.stageDir(stage), "index.json"), "index-", append(b, '\n'))
}

// writeRenamed writes b to dst through a temp file under tmp/ and a
// rename, so dst is never seen half-written.
func (s *Store) writeRenamed(dst, pattern string, b []byte) error {
	tmp, err := os.CreateTemp(s.tmpDir(), pattern)
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, werr := tmp.Write(b)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(name)
		return werr
	}
	return os.Rename(name, dst)
}

// Summary renders the store's accounting for an end-of-run status line,
// e.g. "dir=cache hits=2 misses=0 invalidations=0 verify_failures=0".
func (s *Store) Summary() string {
	if s == nil {
		return "off"
	}
	c := s.Counters()
	return fmt.Sprintf("dir=%s hits=%d misses=%d invalidations=%d verify_failures=%d",
		s.dir, c.Hits, c.Misses, c.Invalidations, c.VerifyFailures)
}
