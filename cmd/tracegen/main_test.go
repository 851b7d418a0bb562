package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainArgsEnv carries a command line to a re-executed test binary, which
// then runs main with it instead of the tests (see runMain).
const mainArgsEnv = "TRACEGEN_MAIN_ARGS"

func TestMain(m *testing.M) {
	if enc, ok := os.LookupEnv(mainArgsEnv); ok {
		var args []string
		if err := json.Unmarshal([]byte(enc), &args); err != nil {
			panic(err)
		}
		os.Args = append([]string{"tracegen"}, args...)
		flag.CommandLine = flag.NewFlagSet("tracegen", flag.ExitOnError)
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

// TestBadFlagsFailBeforeWork: flags the command does not define are usage
// errors — the process exits 2 before it writes any part of the dataset.
func TestBadFlagsFailBeforeWork(t *testing.T) {
	for _, flags := range [][]string{
		{"-cache-dir", "x"},
		{"-cache-mode", "read"},
	} {
		t.Run(strings.Join(flags, " "), func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "ds")
			code, output := runMain(t, append([]string{"-out", out, "-scale", "0.002", "-days", "40:41"}, flags...)...)
			if code != 2 || !strings.Contains(output, "flag provided but not defined: "+flags[0]) {
				t.Fatalf("exit %d, want 2 naming the undefined %s:\n%s", code, flags[0], output)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("dataset directory exists after the refused run (stat err %v)", err)
			}
		})
	}
}

func TestParseDays(t *testing.T) {
	from, to, err := parseDays("0:121")
	if err != nil || from != 0 || to != 121 {
		t.Errorf("parseDays(0:121) = %d, %d, %v", from, to, err)
	}
	from, to, err = parseDays("10:11")
	if err != nil || from != 10 || to != 11 {
		t.Errorf("parseDays(10:11) = %d, %d, %v", from, to, err)
	}
	for _, bad := range []string{"", "10", "a:b", "10:", ":11", "1:2:3"} {
		if _, _, err := parseDays(bad); err == nil {
			t.Errorf("parseDays(%q) accepted", bad)
		}
	}
}
