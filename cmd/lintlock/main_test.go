package main

// CLI-level tests: build the real binary once, run it against a known-bad
// fixture module (own go.mod, deliberate violations of all eight
// invariants) and a known-good one, asserting exit status and
// diagnostics end to end — driver, loader, and analyzers together.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func lintlockBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "lintlock")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "lintlock")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			t.Logf("go build output:\n%s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building lintlock: %v", buildErr)
	}
	return binPath
}

// runIn executes the built binary in dir and returns stdout+stderr and
// the exit code.
func runIn(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(lintlockBin(t), args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	exitErr, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running lintlock: %v\n%s", err, out)
	}
	return string(out), exitErr.ExitCode()
}

func TestBadModuleFailsWithAllSevenAnalyzers(t *testing.T) {
	out, code := runIn(t, filepath.Join("testdata", "badmod"), "./...")
	if code != 1 {
		t.Fatalf("want exit 1 on the bad module, got %d\n%s", code, out)
	}
	for _, want := range []string{
		"privleak", "raw identifier type",
		"determinism", "reads the wall clock", "random order",
		"obsnil", "nil guard",
		"errpath", "unchecked error",
		"atomiconly", "plain read of",
		"poolsafe", "escapes through exported",
		"goroutineowner", "no provable shutdown edge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGoodModulePasses(t *testing.T) {
	out, code := runIn(t, filepath.Join("testdata", "goodmod"), "./...")
	if code != 0 {
		t.Fatalf("want exit 0 on the clean module, got %d\n%s", code, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Fatalf("unexpected output on clean module:\n%s", out)
	}
}

func TestSelectRestrictsAnalyzers(t *testing.T) {
	out, code := runIn(t, filepath.Join("testdata", "badmod"), "-select", "errpath", "./...")
	if code != 1 {
		t.Fatalf("want exit 1, got %d\n%s", code, out)
	}
	if !strings.Contains(out, "errpath") || strings.Contains(out, "privleak") {
		t.Fatalf("-select errpath ran the wrong analyzers:\n%s", out)
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	out, code := runIn(t, ".", "-select", "nope", "./...")
	if code != 2 {
		t.Fatalf("want exit 2 for unknown analyzer, got %d\n%s", code, out)
	}
}

func TestListPrintsSuite(t *testing.T) {
	out, code := runIn(t, ".", "-list")
	if code != 0 {
		t.Fatalf("-list exit %d\n%s", code, out)
	}
	for _, name := range []string{
		"privleak", "determinism", "obsnil", "errpath",
		"atomiconly", "poolsafe", "goroutineowner",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("-list missing %s:\n%s", name, out)
		}
	}
}

// TestJSONFindings checks the -json findings shape on the bad module:
// stdout must begin with a parseable JSON array (the trailing
// "N finding(s)" line goes to stderr and CombinedOutput interleaves it
// at the end).
func TestJSONFindings(t *testing.T) {
	out, code := runIn(t, filepath.Join("testdata", "badmod"), "-json", "-select", "atomiconly", "./...")
	if code != 1 {
		t.Fatalf("want exit 1, got %d\n%s", code, out)
	}
	line, _, _ := strings.Cut(out, "\n")
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(line), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	if len(findings) == 0 {
		t.Fatal("-json produced an empty findings array on the bad module")
	}
	f := findings[0]
	if f.Analyzer != "atomiconly" || f.Line == 0 || !strings.Contains(f.File, "ring.go") {
		t.Fatalf("unexpected finding shape: %+v", f)
	}
}

// TestJSONCleanIsEmptyArray: a clean run must emit `[]`, not null, so
// downstream jq/scripts can iterate without guards.
func TestJSONCleanIsEmptyArray(t *testing.T) {
	out, code := runIn(t, filepath.Join("testdata", "goodmod"), "-json", "./...")
	if code != 0 {
		t.Fatalf("want exit 0, got %d\n%s", code, out)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Fatalf("clean -json output not []:\n%s", out)
	}
}

func TestSummaryAppendsMarkdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "summary.md")
	if err := os.WriteFile(path, []byte("pre-existing content\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		t.Fatal(err)
	}
	_, code := runIn(t, filepath.Join("testdata", "badmod"), "-summary", abs, "-select", "atomiconly", "./...")
	if code != 1 {
		t.Fatalf("want exit 1, got %d", code)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(got)
	if !strings.HasPrefix(s, "pre-existing content\n") {
		t.Fatalf("-summary truncated instead of appending:\n%s", s)
	}
	for _, want := range []string{"### lintlock:", "| location | analyzer | message |", "atomiconly", "plain read of"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestSummaryCleanRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "summary.md")
	abs, err := filepath.Abs(path)
	if err != nil {
		t.Fatal(err)
	}
	_, code := runIn(t, filepath.Join("testdata", "goodmod"), "-summary", abs, "./...")
	if code != 0 {
		t.Fatalf("want exit 0, got %d", code)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "lintlock: clean") {
		t.Fatalf("clean summary missing the clean banner:\n%s", got)
	}
}

// TestSuppressionsAuditFailsOnBareAndStale runs the audit over a fixture
// module holding one justified, one stale, and one bare directive.
func TestSuppressionsAuditFailsOnBareAndStale(t *testing.T) {
	out, code := runIn(t, filepath.Join("testdata", "suppressmod"), "-suppressions", "./...")
	if code != 1 {
		t.Fatalf("want exit 1 on bare+stale directives, got %d\n%s", code, out)
	}
	for _, want := range []string{
		"mix.go", "determinism", // every directive listed with file and analyzer
		"fixture clock feeds the audit test only", // justification text surfaces
		"stale ignore directive", "clockcheck",    // stale names the dead analyzer
		"needs an analyzer name and a justification", // the bare directive
	} {
		if !strings.Contains(out, want) {
			t.Errorf("audit output missing %q:\n%s", want, out)
		}
	}
}

// TestSuppressionsAuditCleanModule: justified-only directives list but
// do not fail.
func TestSuppressionsAuditCleanModule(t *testing.T) {
	out, code := runIn(t, filepath.Join("testdata", "goodmod"), "-suppressions", "./...")
	if code != 0 {
		t.Fatalf("want exit 0 on justified-only directives, got %d\n%s", code, out)
	}
	if !strings.Contains(out, "startup banner timestamp") {
		t.Fatalf("audit did not list the justified directive:\n%s", out)
	}
}

func TestSuppressionsJSON(t *testing.T) {
	out, code := runIn(t, filepath.Join("testdata", "suppressmod"), "-suppressions", "-json", "./...")
	if code != 1 {
		t.Fatalf("want exit 1, got %d\n%s", code, out)
	}
	line, _, _ := strings.Cut(out, "\n")
	var doc struct {
		Directives []struct {
			File          string   `json:"file"`
			Line          int      `json:"line"`
			Analyzers     []string `json:"analyzers"`
			Justification string   `json:"justification"`
		} `json:"directives"`
		Issues []struct {
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"issues"`
	}
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("-suppressions -json output unparseable: %v\n%s", err, out)
	}
	if len(doc.Directives) != 2 {
		t.Fatalf("want 2 directives (bare ones are issues, not entries), got %d: %+v",
			len(doc.Directives), doc.Directives)
	}
	if len(doc.Issues) != 2 {
		t.Fatalf("want 2 issues (1 stale + 1 bare), got %d: %+v", len(doc.Issues), doc.Issues)
	}
}
