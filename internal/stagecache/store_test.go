package stagecache

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), ModeReadWrite, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wantCounters(t *testing.T, s *Store, want Counters) {
	t.Helper()
	if got := s.Counters(); got != want {
		t.Errorf("counters = %+v, want %+v", got, want)
	}
}

const testKey = Digest("0000000000000000000000000000000000000000000000000000000000000001")
const otherKey = Digest("0000000000000000000000000000000000000000000000000000000000000002")

func testFiles() map[string][]byte {
	return map[string][]byte{
		"dataset.bin": []byte("columnar payload bytes"),
		"truth.bin":   []byte("truth payload"),
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := testStore(t)
	if err := s.PutBytes("stats", testKey, map[string]Digest{"code": "abc"}, testFiles()); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetBytes("stats", testKey, nil)
	if !ok {
		t.Fatal("round trip missed")
	}
	want := testFiles()
	if len(got) != len(want) {
		t.Fatalf("got %d files, want %d", len(got), len(want))
	}
	for name, b := range want {
		if string(got[name]) != string(b) {
			t.Errorf("%s = %q, want %q", name, got[name], b)
		}
	}
	wantCounters(t, s, Counters{Hits: 1})
}

func TestMissAndInvalidation(t *testing.T) {
	s := testStore(t)
	// A miss on a stage with no committed entries is cold, not an
	// invalidation.
	if _, ok := s.GetBytes("stats", testKey, nil); ok {
		t.Fatal("empty store served a hit")
	}
	wantCounters(t, s, Counters{Misses: 1})
	if err := s.PutBytes("stats", testKey, nil, testFiles()); err != nil {
		t.Fatal(err)
	}
	// A miss on a different key for the same stage means an input moved:
	// that is an invalidation.
	if _, ok := s.GetBytes("stats", otherKey, nil); ok {
		t.Fatal("wrong key served a hit")
	}
	wantCounters(t, s, Counters{Misses: 2, Invalidations: 1})
}

func TestValidateRejectionCountsAsVerifyFailure(t *testing.T) {
	s := testStore(t)
	if err := s.PutBytes("stats", testKey, nil, testFiles()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetBytes("stats", testKey, func(map[string][]byte) error {
		return errors.New("payload codec skew")
	}); ok {
		t.Fatal("rejected payload still counted as a hit")
	}
	wantCounters(t, s, Counters{Misses: 1, VerifyFailures: 1})
	// The entry itself is intact: a permissive reader still hits.
	if _, ok := s.GetBytes("stats", testKey, nil); !ok {
		t.Fatal("entry lost after validate rejection")
	}
}

// TestCorruptionMatrix damages a committed entry every way the ISSUE
// names — payload bit flip, truncation, deletion, manifest damage, store
// version skew, manifest/key mismatch — and requires each to read as a
// verify failure (counted) plus a miss, after which a recompute (re-Put)
// fully heals the entry.
func TestCorruptionMatrix(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, entryDir string)
	}{
		{"payload bit flip", func(t *testing.T, dir string) {
			p := filepath.Join(dir, "dataset.bin")
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x40
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"payload truncation", func(t *testing.T, dir string) {
			p := filepath.Join(dir, "truth.bin")
			if err := os.Truncate(p, 3); err != nil {
				t.Fatal(err)
			}
		}},
		{"payload deleted", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "dataset.bin")); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest not JSON", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{torn"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"store version skew", func(t *testing.T, dir string) {
			rewriteManifest(t, dir, func(m *manifest) { m.Version = StoreVersion + 1 })
		}},
		{"manifest names another key", func(t *testing.T, dir string) {
			rewriteManifest(t, dir, func(m *manifest) { m.Key = string(otherKey) })
		}},
		{"manifest checksum edited", func(t *testing.T, dir string) {
			rewriteManifest(t, dir, func(m *manifest) {
				m.Files[0].SHA256 = strings.Repeat("0", 64)
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testStore(t)
			if err := s.PutBytes("stats", testKey, nil, testFiles()); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, filepath.Join(s.dir, "stats", string(testKey)))
			if _, ok := s.GetBytes("stats", testKey, nil); ok {
				t.Fatal("corrupted entry served as a hit")
			}
			c := s.Counters()
			if c.VerifyFailures != 1 || c.Misses != 1 || c.Hits != 0 {
				t.Fatalf("corruption accounting = %+v, want 1 verify failure + 1 miss", c)
			}
			// Recompute path: a fresh Put replaces the damaged entry and
			// the next read hits and round-trips the new payload.
			if err := s.PutBytes("stats", testKey, nil, testFiles()); err != nil {
				t.Fatalf("re-put over corrupt entry: %v", err)
			}
			got, ok := s.GetBytes("stats", testKey, nil)
			if !ok {
				t.Fatal("entry not healed by recompute")
			}
			if string(got["dataset.bin"]) != string(testFiles()["dataset.bin"]) {
				t.Error("healed entry returned wrong payload")
			}
		})
	}
}

func rewriteManifest(t *testing.T, entryDir string, mutate func(*manifest)) {
	t.Helper()
	p := filepath.Join(entryDir, "manifest.json")
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	mutate(&m)
	out, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTornWriteIsInvisible plants the two artifacts a crash mid-Put can
// leave — an entry directory without a manifest, and a staging directory
// under tmp/ — and requires the first to read as a plain miss (no verify
// failure: nothing claimed to be valid) and the second to be swept on the
// next Open.
func TestTornWriteIsInvisible(t *testing.T) {
	s := testStore(t)
	entry := filepath.Join(s.dir, "stats", string(testKey))
	if err := os.MkdirAll(entry, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(entry, "dataset.bin"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetBytes("stats", testKey, nil); ok {
		t.Fatal("manifest-less entry served as a hit")
	}
	wantCounters(t, s, Counters{Misses: 1})

	staging := filepath.Join(s.dir, "tmp", "put-leftover")
	if err := os.MkdirAll(staging, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(staging, "dataset.bin"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(s.dir, ModeReadWrite, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(staging); !errors.Is(err, os.ErrNotExist) {
		t.Error("Open did not sweep the torn staging directory")
	}
}

// TestNilStore pins the nil-receiver contract: every method is safe and
// behaves as a cache that is off.
func TestNilStore(t *testing.T) {
	var s *Store
	if _, ok := s.GetBytes("stats", testKey, nil); ok {
		t.Error("nil store served a hit")
	}
	if err := s.PutBytes("stats", testKey, nil, testFiles()); err != nil {
		t.Error("nil store PutBytes errored")
	}
	if s.Counters() != (Counters{}) {
		t.Error("nil store has nonzero counters")
	}
	if s.Summary() != "off" {
		t.Errorf("nil store summary = %q", s.Summary())
	}
}

func TestSummaryShape(t *testing.T) {
	s := testStore(t)
	s.GetBytes("stats", testKey, nil)
	sum := s.Summary()
	for _, frag := range []string{"dir=" + s.dir + " ", "hits=0", "misses=1", "invalidations=0", "verify_failures=0"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary %q missing %q", sum, frag)
		}
	}
}
