package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
)

// TestBadFlagsFailBeforeWork: flag combinations the run graph refuses are
// refused before ingest starts — the run returns the error and leaves no
// output directory.
func TestBadFlagsFailBeforeWork(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config
		want string
	}{
		{"yoy with logs", config{Config: runner.Config{Logs: "logs", Yoy: true}}, "-yoy"},
		{"fault policy without logs", config{Config: runner.Config{FaultPolicy: "skip"}}, "require -logs"},
		{"unknown fault policy", config{Config: runner.Config{Logs: "logs", FaultPolicy: "lenient"}}, "unknown policy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := tc.cfg
			cfg.Scale, cfg.Seed, cfg.quiet, cfg.statusW = 0.002, 1, true, io.Discard
			cfg.Out = filepath.Join(dir, "out")
			err := run(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
			if _, err := os.Stat(cfg.Out); !os.IsNotExist(err) {
				t.Errorf("output directory exists after the refused run (stat err %v)", err)
			}
		})
	}
}
