package main

import (
	"encoding/hex"
	"io"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs three workloads end to end at 0.5% scale against freshly
// built binaries, with the traced in-process repeat on: every output check
// must pass, which includes the repeat's artifacts and generated tree being
// byte-identical to the binaries', the append repeat's cache accounting
// equalling the binary's, and the spans covering the traced wall.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if err := buildBinaries(root, bin); err != nil {
		t.Fatal(err)
	}
	key := []byte("0123456789abcdef")
	for _, name := range []string{"replay-logs", "append-day", "serve-under-ingest"} {
		t.Run(name, func(t *testing.T) {
			e := &env{root: root, bin: bin, work: t.TempDir(), scale: 0.005, seed: 3,
				key: key, keyHex: hex.EncodeToString(key), seconds: time.Second, trace: true, log: io.Discard}
			r := &report{workload: name}
			if err := workloads[name](e, r); err != nil {
				t.Fatal(err)
			}
			if !r.correct() {
				t.Fatalf("%d of %d operations failed:\n%s", r.failed, r.attempted, strings.Join(r.failures, "\n"))
			}
			layers := map[string]float64{}
			for _, m := range r.layers {
				layers[m.Name] = m.Value
			}
			if layers["trace_coverage_frac"] < coverageFloor || layers["core.flows"] == 0 || layers["logsink.records"] == 0 {
				t.Errorf("implausible layer metrics: %v", layers)
			}
			if len(r.e2eM) != 4 || len(r.spans) == 0 {
				t.Errorf("%d end-to-end metrics and %d spans", len(r.e2eM), len(r.spans))
			}
		})
	}
}
