package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the harness reads: the run
// length, the workloads and the metrics with their regression bounds.
type benchSpec struct {
	RunSeconds int                     `json:"run_seconds"`
	Workloads  []struct{ Name string } `json:"workloads"`
	EndToEnd   []metricSpec            `json:"end_to_end"`
	PerLayer   []metricSpec            `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// fingerprint identifies the host and toolchain a report was measured on.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GitHead    string `json:"git_head"` // informational: two commits are what a comparison compares
}

func hostFingerprint(root string) fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		GitHead:    gitHead(root),
	}
}

// sameHost reports whether two fingerprints describe the same machine and
// toolchain, ignoring the commit.
func sameHost(a, b fingerprint) bool {
	a.GitHead, b.GitHead = "", ""
	return a == b
}

func readFile(path string) string {
	b, _ := os.ReadFile(path)
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead is the checkout's commit, or "unknown" outside a git work tree.
// The search stops at the checkout so a parent repository is never read.
func gitHead(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runRecord is one workload run as stored in results.json.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	GenSeed   int64              `json:"generator_seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

// resultsFile is results.json: the host and every run made into one output
// directory, so repeated invocations build up a set of runs to compare.
type resultsFile struct {
	Host fingerprint `json:"host"`
	Runs []runRecord `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResults adds runs to dir/results.json. When the file was measured
// on another host it is kept as results.<n>.json, the first free n, and a
// new results.json starts, so no accumulated baseline is lost.
func appendResults(dir string, host fingerprint, runs []runRecord, log io.Writer) error {
	path := filepath.Join(dir, "results.json")
	rf, err := readResults(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		rf = &resultsFile{Host: host}
	case err != nil:
		return err
	case !sameHost(rf.Host, host):
		kept, err := keepAside(dir)
		if err != nil {
			return err
		}
		fmt.Fprintf(log, "lockbench: %s was measured on another host; kept as %s, starting a new one\n", path, kept)
		rf = &resultsFile{Host: host}
	}
	rf.Host.GitHead = host.GitHead
	rf.Runs = append(rf.Runs, runs...)
	return writeJSON(path, rf)
}

// keepAside renames dir/results.json to dir/results.<n>.json for the first
// n not yet taken and returns the new path.
func keepAside(dir string) (string, error) {
	for n := 1; ; n++ {
		p := filepath.Join(dir, fmt.Sprintf("results.%d.json", n))
		if _, err := os.Lstat(p); errors.Is(err, os.ErrNotExist) {
			return p, os.Rename(filepath.Join(dir, "results.json"), p)
		} else if err != nil {
			return "", err
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// floors are the absolute changes below which a metric never counts as
// regressed, whatever its relative bound: below them a difference is
// within what the clocks and the kernel's accounting resolve.
var floors = map[string]float64{
	"setup_s":     0.05,
	"result_ms":   5,
	"cpu_s":       0.05,
	"peak_rss_mb": 8,
}

// row is one (workload, metric) comparison.
type row struct {
	workload, metric string
	na, nb           int
	a, b             float64 // medians over each side's runs
	change           float64 // relative change, positive when B is worse
	spread           float64 // the wider side's interquartile range over median
	bound            float64
	verdict          string
}

// compare applies every end-to-end metric's bound per workload. A metric
// regresses when B's median is worse than A's by more than its bound and
// its absolute floor. It is unresolved when the runs of either side spread
// wider than the bound, unless every run of B beats every run of A.
func compare(spec *benchSpec, a, b *resultsFile) []row {
	var rows []row
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rw := row{workload: w.Name, metric: m.Name, na: len(va), nb: len(vb), a: median(va), b: median(vb), bound: m.Bound}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			rw.change = sign * (rw.b - rw.a) / rw.a
			rw.spread = max(spread(va), spread(vb))
			switch {
			case rw.spread > m.Bound && !allBetter(va, vb, sign):
				rw.verdict = "unresolved"
			case rw.change > m.Bound && rw.change*rw.a > floors[m.Name]:
				rw.verdict = "regressed"
			default:
				rw.verdict = "ok"
			}
			rows = append(rows, rw)
		}
	}
	return rows
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, sign float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if sign > 0 { // lower is better
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// values collects one metric of one workload over a report's correct runs.
// Traced and untraced runs pool: the end-to-end metrics always come from the
// untraced part, which finishes before the traced repeat starts.
func values(rf *resultsFile, workload, metric string) []float64 {
	var vs []float64
	for _, r := range rf.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Correct {
			vs = append(vs, v)
		}
	}
	return vs
}

// runLengths lists the distinct run lengths in the reports, ascending.
func runLengths(rfs ...*resultsFile) []int {
	seen := map[int]bool{}
	var ls []int
	for _, rf := range rfs {
		for _, r := range rf.Runs {
			if !seen[r.Seconds] {
				seen[r.Seconds] = true
				ls = append(ls, r.Seconds)
			}
		}
	}
	sort.Ints(ls)
	return ls
}

// runCompare implements -compare A.json B.json. Exit status: 0 when every
// row is ok, 1 when any regressed or is unresolved, 2 when the reports
// cannot be compared.
func runCompare(spec *benchSpec, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "lockbench: -compare takes two results.json files")
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "lockbench:", err)
		return 2
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "lockbench:", err)
		return 2
	}
	if !sameHost(a.Host, b.Host) {
		fmt.Fprintf(stderr, "lockbench: refusing to compare reports from different hosts:\n  A %+v\n  B %+v\n", a.Host, b.Host)
		return 2
	}
	if ls := runLengths(a, b); len(ls) > 1 {
		fmt.Fprintf(stderr, "lockbench: refusing to compare runs measured for different lengths %v (seconds): the length is part of the workload\n", ls)
		return 2
	}
	rows := compare(spec, a, b)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "lockbench: the two reports share no workload")
		return 2
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].workload < rows[j].workload })
	fmt.Fprintf(stdout, "A %s  B %s  (%s, %d CPUs)\n", a.Host.GitHead, b.Host.GitHead, a.Host.CPUModel, a.Host.NumCPU)
	fmt.Fprintf(stdout, "%-20s %-12s %5s %12s %12s %8s %7s %6s  %s\n", "workload", "metric", "runs", "A median", "B median", "change", "spread", "bound", "verdict")
	code := 0
	for _, rw := range rows {
		fmt.Fprintf(stdout, "%-20s %-12s %2d/%-2d %12.6g %12.6g %+7.1f%% %6.1f%% %5.0f%%  %s\n",
			rw.workload, rw.metric, rw.na, rw.nb, rw.a, rw.b, 100*rw.change, 100*rw.spread, 100*rw.bound, rw.verdict)
		if rw.verdict != "ok" {
			code = 1
		}
	}
	return code
}
