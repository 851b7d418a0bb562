package logsink

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/decodeerr"
	"repro/internal/faultline"
	"repro/internal/trace"
	"repro/internal/universe"
)

// writeRotated generates a small rotated dataset and returns its root.
func writeRotated(t testing.TB) string {
	t.Helper()
	root := t.TempDir()
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.005
	g, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := NewRotatingWriter(root, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunDays(rw, 5, 8); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	return root
}

// copyRotated clones a rotated dataset into a fresh temp dir.
func copyRotated(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// tearConnLog truncates the first day's conn.log mid-way through its last
// record at the given fraction of the detectable span, modeling a write
// torn by rotation. The cut is constrained to land before the record's
// last tab: a tear inside the final field's digits still parses as a
// (shorter) valid value — a fundamental limit of unframed TSV, covered by
// the value-tolerance bounds of the differential harness instead.
func tearConnLog(t *testing.T, root string, frac float64) {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var days []string
	for _, e := range entries {
		if e.IsDir() {
			days = append(days, e.Name())
		}
	}
	sort.Strings(days)
	path := filepath.Join(root, days[0], ConnFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	last := -1
	for i, l := range lines {
		if l != "" && !strings.HasPrefix(l, "#") {
			last = i
		}
	}
	if last < 0 {
		t.Fatal("no data records in day-0 conn.log")
	}
	rec := lines[last]
	lastTab := strings.LastIndexByte(rec, '\t')
	if lastTab < 1 {
		t.Fatalf("degenerate record %q", rec)
	}
	cut := 1 + int(frac*float64(lastTab-1))
	// Everything after the torn record is lost with it, #close included.
	torn := strings.Join(lines[:last], "\n") + "\n" + rec[:cut]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTornRotationBoundary is the rotation-boundary robustness property:
// for any seeded split offset, a record torn at the end of one day's
// conn.log surfaces exactly one truncated-record drop, and the resumed
// replay (next day onward) neither loses nor duplicates anything else —
// total flows are exactly the clean count minus one.
func TestTornRotationBoundary(t *testing.T) {
	src := writeRotated(t)

	clean := &tally{t: t}
	if err := ReplayRotatedWithOptions(src, clean, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	if clean.flows == 0 {
		t.Fatal("degenerate dataset: no flows")
	}

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		frac := rng.Float64()
		torn := copyRotated(t, src)
		tearConnLog(t, torn, frac)

		guard := faultline.NewGuard(faultline.PolicySkip, 0, nil, nil)
		got := &tally{t: t}
		if err := ReplayRotatedWithOptions(torn, got, ReplayOptions{Guard: guard}); err != nil {
			t.Fatalf("offset frac %.3f: replay failed: %v", frac, err)
		}
		drops := guard.Drops()
		if guard.DropTotal() != 1 || drops[decodeerr.Truncated] != 1 {
			t.Fatalf("offset frac %.3f: drops = %v, want exactly one truncated", frac, drops)
		}
		if got.flows != clean.flows-1 {
			t.Fatalf("offset frac %.3f: %d flows, want %d (clean %d minus the torn record, no duplicates)",
				frac, got.flows, clean.flows-1, clean.flows)
		}
		if got.dns != clean.dns || got.http != clean.http || got.leases != clean.leases {
			t.Fatalf("offset frac %.3f: other streams shifted: dns %d/%d http %d/%d leases %d/%d",
				frac, got.dns, clean.dns, got.http, clean.http, got.leases, clean.leases)
		}
		if guard.Accepted()+guard.DropTotal() != guard.Offered() {
			t.Fatalf("offset frac %.3f: accounting broken: %s", frac, guard.Summary())
		}
	}
}

// TestTornTailInjectorOnRotation runs the same property through the
// injector's torn-tail fault class instead of a hand-built tear, pinning
// the two implementations to the same semantics.
func TestTornTailInjectorOnRotation(t *testing.T) {
	src := writeRotated(t)
	clean := &tally{t: t}
	if err := ReplayRotatedWithOptions(src, clean, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}

	// Tear every log of every day: per-file torn tails at zero random
	// rate. Each file's physical last line is cut; for these logs that is
	// the #close trailer, which parsers skip — so only files whose tear
	// happens to land on data surface drops. Accounting must hold anyway.
	dst := t.TempDir()
	reports, err := faultline.CorruptDataset(src, dst, faultline.Config{Seed: 4, TornTail: true})
	if err != nil {
		t.Fatal(err)
	}
	var total faultline.Report
	for _, r := range reports {
		total.Merge(r)
	}
	if total.Faults[faultline.FaultTornTail] == 0 {
		t.Fatal("no torn tails applied")
	}

	guard := faultline.NewGuard(faultline.PolicySkip, 0, nil, nil)
	got := &tally{t: t}
	if err := ReplayRotatedWithOptions(dst, got, ReplayOptions{Guard: guard}); err != nil {
		t.Fatal(err)
	}
	if guard.Accepted()+guard.DropTotal() != guard.Offered() {
		t.Fatalf("accounting broken: %s", guard.Summary())
	}
	// A torn #close is invisible; a torn record drops exactly itself.
	if lost := clean.flows - got.flows; int64(lost) != guard.Drops()[decodeerr.Truncated] {
		t.Fatalf("lost %d flows but guard counted %d truncated", lost, guard.Drops()[decodeerr.Truncated])
	}
}
