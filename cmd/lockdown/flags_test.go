package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
)

// mainArgsEnv carries a command line to a re-executed test binary, which
// then runs main with it instead of the tests (see runMain).
const mainArgsEnv = "LOCKDOWN_MAIN_ARGS"

func TestMain(m *testing.M) {
	if enc, ok := os.LookupEnv(mainArgsEnv); ok {
		var args []string
		if err := json.Unmarshal([]byte(enc), &args); err != nil {
			panic(err)
		}
		os.Args = append([]string{"lockdown"}, args...)
		flag.CommandLine = flag.NewFlagSet("lockdown", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command's main with args in a child process and
// returns its exit code and combined output.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	enc, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+string(enc))
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		t.Fatalf("running main: %v\n%s", err, out)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// TestBadFlagsFailBeforeWork: flag combinations the run graph refuses are
// refused before ingest starts — the run returns the error and leaves no
// output directory. Flags the command does not define are usage errors:
// the process exits 2 before any work.
func TestBadFlagsFailBeforeWork(t *testing.T) {
	for _, flags := range [][]string{
		{"-cache-mode", "read"},
		{"-fig-workers", "2"},
	} {
		t.Run(strings.Join(flags, " "), func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			code, output := runMain(t, append([]string{"-scale", "0.002", "-quiet", "-out", out}, flags...)...)
			if code != 2 || !strings.Contains(output, "flag provided but not defined: "+flags[0]) {
				t.Fatalf("exit %d, want 2 naming the undefined %s:\n%s", code, flags[0], output)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("output directory exists after the refused run (stat err %v)", err)
			}
		})
	}
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
