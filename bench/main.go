// Command lockbench is the repository's end-to-end benchmark. It builds the
// real lockdown, tracegen and lockdownd binaries, runs each workload against
// them untraced for the end-to-end metrics, checks that their outputs are
// byte-correct, and with -trace 1 repeats the workload in-process with a span
// around every layer call for the per-layer metrics. BENCHMARK.json at the
// repository root lists the workloads and metrics; README.md explains them.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-trace 0|1] [-out DIR]
//	bash bench/run.sh -compare A/results.json B/results.json
//
// Every workload measures run_seconds from BENCHMARK.json; -seconds is
// accepted only with that value.
//
// Every metric is printed as "<workload> <metric> <value> <unit>"; the last
// line of standard output is one JSON object with the run's verdict and the
// end-to-end (or, with -trace 1, per-layer) metrics. The exit status is 0
// only when every output check passed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lockbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: every workload in turn)")
	seed := fs.Int64("seed", 1, "workload seed; the inputs and the pseudonymization key derive from it")
	seconds := fs.Int("seconds", 0, "measured seconds per workload; accepted only as run_seconds from BENCHMARK.json, which fixes the workload")
	traceOn := fs.Int("trace", 0, "1: also repeat each workload in-process with layer spans and report per-layer metrics")
	out := fs.String("out", "", "directory receiving results.json and spans.json (default .bench_build/results)")
	cmp := fs.Bool("compare", false, "compare two results.json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "lockbench:", err)
		return 2
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "lockbench:", err)
		return 2
	}
	if *cmp {
		return runCompare(spec, fs.Args(), stdout, stderr)
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(stderr, "lockbench: -trace takes 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	} else if !spec.hasWorkload(*workload) {
		fmt.Fprintf(stderr, "lockbench: unknown workload %q\n", *workload)
		return 2
	}
	// The run length is part of the workload (serve-under-ingest sizes its
	// arriving days by it), so it is BENCHMARK.json's to set, not the caller's.
	if *seconds != 0 && *seconds != spec.RunSeconds {
		fmt.Fprintf(stderr, "lockbench: -seconds %d: BENCHMARK.json fixes the run at %d seconds\n", *seconds, spec.RunSeconds)
		return 2
	}
	*seconds = spec.RunSeconds
	if *out == "" {
		*out = filepath.Join(root, ".bench_build", "results")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "lockbench:", err)
		return 2
	}

	bin := filepath.Join(root, ".bench_build", "bin")
	fmt.Fprintln(stderr, "lockbench: building lockdown, tracegen and lockdownd")
	if err := buildBinaries(root, bin); err != nil {
		fmt.Fprintln(stderr, "lockbench:", err)
		return 1
	}
	gseed, err := generatorSeed(*seed, scale)
	if err != nil {
		fmt.Fprintln(stderr, "lockbench:", err)
		return 1
	}
	key := sha256.Sum256([]byte("lockbench key " + strconv.FormatInt(*seed, 10)))
	base := env{
		root: root, bin: bin, seed: gseed, scale: scale,
		key: key[:16], keyHex: hex.EncodeToString(key[:16]),
		seconds: time.Duration(*seconds) * time.Second, trace: *traceOn == 1, log: stderr,
	}
	var reports []*report
	for _, name := range names {
		r, err := base.runWorkload(name)
		if err != nil {
			fmt.Fprintf(stderr, "lockbench: %s: %v\n", name, err)
			return 1
		}
		r.print(stdout)
		reports = append(reports, r)
	}

	host := hostFingerprint(root)
	var runs []runRecord
	var spans []span
	for _, r := range reports {
		runs = append(runs, record(r, *seed, gseed, *seconds, base.trace))
		spans = append(spans, r.spans...)
	}
	if err := appendResults(*out, host, runs, stderr); err != nil {
		fmt.Fprintln(stderr, "lockbench:", err)
		return 1
	}
	if base.trace {
		if err := writeJSON(filepath.Join(*out, "spans.json"), spans); err != nil {
			fmt.Fprintln(stderr, "lockbench:", err)
			return 1
		}
	}
	line, err := summary(spec, reports, base.trace)
	if err != nil {
		fmt.Fprintln(stderr, "lockbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	for _, r := range reports {
		if !r.correct() {
			return 1
		}
	}
	return 0
}

// findRoot locates the repository checkout: the working directory or the
// nearest parent holding BENCHMARK.json and the programs under test.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isRoot(dir) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository checkout (BENCHMARK.json beside cmd/lockdown) here or above")
		}
		dir = parent
	}
}

func isRoot(dir string) bool {
	for _, p := range []string{"BENCHMARK.json", "go.mod", filepath.Join("cmd", "lockdown")} {
		if _, err := os.Stat(filepath.Join(dir, p)); err != nil {
			return false
		}
	}
	return true
}

// runWorkload runs one workload in its own scratch directory.
func (e env) runWorkload(name string) (*report, error) {
	e.work = filepath.Join(e.root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", name, e.seed, os.Getpid()))
	if err := os.RemoveAll(e.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	e.logf("%s: generator seed %d, %v measured", name, e.seed, e.seconds)
	r := &report{workload: name}
	run, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("no such workload")
	}
	return r, run(&e, r)
}

// workloads maps each workload BENCHMARK.json names to its implementation.
var workloads = map[string]func(*env, *report) error{
	"generate-batch":     (*env).generateBatch,
	"replay-logs":        (*env).replayLogs,
	"append-day":         (*env).appendDay,
	"serve-under-ingest": (*env).serveUnderIngest,
}

func record(r *report, seed, genSeed int64, seconds int, traced bool) runRecord {
	rec := runRecord{Workload: r.workload, Seed: seed, GenSeed: genSeed, Seconds: seconds, Trace: traced,
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		Metrics: map[string]float64{}}
	for _, m := range r.e2eM {
		rec.Metrics[m.Name] = finite(m.Value)
	}
	if traced {
		rec.Layers = map[string]float64{}
		for _, m := range r.layers {
			rec.Layers[m.Name] = finite(m.Value)
		}
	}
	return rec
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary renders the final output line: the verdict plus every metric
// BENCHMARK.json declares, end-to-end or per-layer. With several workloads
// the metric names are prefixed "<workload>.".
func summary(spec *benchSpec, reports []*report, traced bool) (string, error) {
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonValue{}}
	for _, r := range reports {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.attempted
		out.Failed += r.failed
		have := map[string]metric{}
		for _, m := range append(r.e2eM, r.layers...) {
			have[m.Name] = m
		}
		for _, ms := range want {
			m, ok := have[ms.Name]
			if !ok {
				return "", fmt.Errorf("%s: BENCHMARK.json declares %s, which the run did not measure", r.workload, ms.Name)
			}
			if m.Unit != ms.Unit {
				return "", fmt.Errorf("%s: %s measured in %s, BENCHMARK.json says %s", r.workload, ms.Name, m.Unit, ms.Unit)
			}
			name := ms.Name
			if len(reports) > 1 {
				name = r.workload + "." + name
			}
			out.Metrics[name] = jsonValue{finite(m.Value), m.Unit}
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
