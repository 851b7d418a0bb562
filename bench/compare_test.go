package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func runsOf(workload string, metric string, vs ...float64) []runRecord {
	var rs []runRecord
	for _, v := range vs {
		rs = append(rs, runRecord{Workload: workload, Correct: true, Metrics: map[string]float64{metric: v}})
	}
	return rs
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		Workloads: []struct{ Name string }{{Name: "w"}, {Name: "serve"}},
		EndToEnd: []metricSpec{
			{Name: "setup_s", Better: "lower", Bound: 0.25},
			{Name: "result_ms", Better: "lower", Bound: 0.15},
			{Name: "cpu_s", Better: "lower", Bound: 0.15},
			{Name: "peak_rss_mb", Better: "lower", Bound: 0.15},
		},
	}
	host := fingerprint{NumCPU: 2}
	a := &resultsFile{Host: host}
	b := &resultsFile{Host: host}
	add := func(rf *resultsFile, w, m string, vs ...float64) { rf.Runs = append(rf.Runs, runsOf(w, m, vs...)...) }
	// Regressed: 30% worse with tight runs.
	add(a, "w", "result_ms", 100, 101, 99, 100, 102)
	add(b, "w", "result_ms", 130, 131, 129, 130, 132)
	// Ok: worse, but within the bound.
	add(a, "w", "cpu_s", 1.0, 1.01, 0.99, 1.0)
	add(b, "w", "cpu_s", 1.1, 1.11, 1.09, 1.1)
	// Unresolved: the parent's runs spread wider than the bound.
	add(a, "w", "peak_rss_mb", 50, 80, 100, 120, 60)
	add(b, "w", "peak_rss_mb", 70, 90, 110, 100, 60)
	// Ok despite a wide spread: every run of B beats every run of A.
	add(a, "w", "setup_s", 5, 8, 10, 12, 6)
	add(b, "w", "setup_s", 1, 1.5, 2, 1.2, 1.1)
	// Ok: 20% worse but only 4 ms, under result_ms's absolute floor.
	add(a, "serve", "result_ms", 20, 20, 20, 20)
	add(b, "serve", "result_ms", 24, 24, 24, 24)
	// Incorrect runs are not compared.
	b.Runs = append(b.Runs, runRecord{Workload: "serve", Correct: false, Metrics: map[string]float64{"cpu_s": 9}})
	a.Runs = append(a.Runs, runsOf("serve", "cpu_s", 1)...)

	got := map[string]string{}
	for _, rw := range compare(spec, a, b) {
		got[rw.workload+" "+rw.metric] = rw.verdict
	}
	want := map[string]string{
		"w result_ms":     "regressed",
		"w cpu_s":         "ok",
		"w peak_rss_mb":   "unresolved",
		"w setup_s":       "ok",
		"serve result_ms": "ok",
	}
	if len(got) != len(want) {
		t.Errorf("rows %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %q, want %q", k, got[k], v)
		}
	}
}

// Reports from different hosts are refused; a different commit is what a
// comparison is for.
func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, host fingerprint) string {
		p := filepath.Join(dir, name)
		rf := resultsFile{Host: host, Runs: runsOf("w", "result_ms", 1, 1, 1)}
		if err := writeJSON(p, rf); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := &benchSpec{Workloads: []struct{ Name string }{{Name: "w"}}, EndToEnd: []metricSpec{{Name: "result_ms", Better: "lower", Bound: 0.1}}}
	one := fingerprint{NumCPU: 1, GOMAXPROCS: 1, CPUModel: "x", GitHead: "a"}
	two := one
	two.NumCPU, two.GOMAXPROCS = 2, 2
	commit := one
	commit.GitHead = "b"
	var out, errb bytes.Buffer
	if code := runCompare(spec, []string{write("a.json", one), write("b.json", two)}, &out, &errb); code != 2 {
		t.Errorf("1-CPU vs 2-CPU: exit %d, want 2 (refused)", code)
	}
	if code := runCompare(spec, []string{write("a.json", one), write("c.json", commit)}, &out, &errb); code != 0 {
		t.Errorf("same host, two commits: exit %d, want 0\n%s%s", code, out.String(), errb.String())
	}
}

func TestAppendResultsAccumulatesRuns(t *testing.T) {
	dir := t.TempDir()
	host := fingerprint{NumCPU: 2, CPUModel: "x"}
	for i := 0; i < 3; i++ {
		if err := appendResults(dir, host, runsOf("w", "result_ms", float64(i)), os.Stderr); err != nil {
			t.Fatal(err)
		}
	}
	rf, err := readResults(filepath.Join(dir, "results.json"))
	if err != nil || len(rf.Runs) != 3 {
		t.Fatalf("got %v runs, err %v; want 3", rf, err)
	}
	// A run from another host starts a new file; the old runs survive beside
	// it, and a second change of host does not overwrite them.
	for i, n := range []int{4, 8} {
		other := host
		other.NumCPU = n
		if err := appendResults(dir, other, runsOf("w", "result_ms", 9), &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		if rf, _ = readResults(filepath.Join(dir, "results.json")); len(rf.Runs) != 1 || rf.Host != other {
			t.Errorf("host %d: results.json should hold only the new run, got %+v", n, rf)
		}
		kept, err := readResults(filepath.Join(dir, fmt.Sprintf("results.%d.json", i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{3, 1}[i]; len(kept.Runs) != want {
			t.Errorf("results.%d.json holds %d runs, want %d", i+1, len(kept.Runs), want)
		}
	}
}

// A comparison refuses runs measured for different lengths, since the length
// shapes the workload.
func TestCompareRefusesOtherRunLengths(t *testing.T) {
	dir := t.TempDir()
	spec := &benchSpec{Workloads: []struct{ Name string }{{Name: "w"}}, EndToEnd: []metricSpec{{Name: "result_ms", Better: "lower", Bound: 0.1}}}
	write := func(name string, seconds int) string {
		rs := runsOf("w", "result_ms", 1, 1, 1)
		for i := range rs {
			rs[i].Seconds = seconds
		}
		p := filepath.Join(dir, name)
		if err := writeJSON(p, resultsFile{Runs: rs}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out, errb bytes.Buffer
	if code := runCompare(spec, []string{write("a.json", 10), write("b.json", 3)}, &out, &errb); code != 2 {
		t.Errorf("10 s vs 3 s runs: exit %d, want 2 (refused)", code)
	}
	if code := runCompare(spec, []string{write("a.json", 10), write("b.json", 10)}, &out, &errb); code != 0 {
		t.Errorf("equal lengths: exit %d, want 0\n%s", code, errb.String())
	}
}

// -seconds is accepted only with BENCHMARK.json's run_seconds; anything else
// is refused before a workload starts.
func TestRunRefusesOtherSeconds(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-seconds", "3", "-workload", "generate-batch"}, &out, &errb); code != 2 {
		t.Errorf("-seconds 3: exit %d, want 2\n%s", code, errb.String())
	}
}

// The last output line carries exactly the contract's keys and every metric
// BENCHMARK.json declares, each with the declared unit.
func TestSummaryCoversTheSpec(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := &report{workload: "w", attempted: 3}
	for _, m := range spec.EndToEnd {
		r.e2e(m.Name, 1.5, m.Unit, "")
	}
	line, err := summary(spec, []*report{r}, false)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, " ") != "attempted correct failed metrics" {
		t.Errorf("keys %v", keys)
	}
	var ms map[string]jsonValue
	if err := json.Unmarshal(got["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(spec.EndToEnd) {
		t.Errorf("%d metrics, want %d", len(ms), len(spec.EndToEnd))
	}
	if _, err := summary(spec, []*report{r}, true); err == nil {
		t.Error("a traced summary without per-layer metrics should fail")
	}
}
