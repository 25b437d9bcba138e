package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the CLI tests run this test binary as the command:
// with VERSASLOT_CLI set, it runs main on its arguments instead of the
// tests.
func TestMain(m *testing.M) {
	if os.Getenv("VERSASLOT_CLI") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command with args and returns its stderr and exit
// code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VERSASLOT_CLI=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return stderr.String(), cmd.ProcessState.ExitCode()
}

// TestCLIErrorPrefix checks that a failing scenario prints one error
// line prefixed with the command name exactly once, for a missing
// file, a file the library rejects, and flags that fail validation.
func TestCLIErrorPrefix(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"policy": "bogus"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"missing file", []string{"-scenario", filepath.Join(dir, "none.json")}, 1, "no such file"},
		{"invalid file", []string{"-scenario", bad}, 1, `unknown policy "bogus"`},
		{"invalid flags", []string{"-apps", "-1"}, 2, "negative app count"},
	} {
		t.Run(c.name, func(t *testing.T) {
			stderr, code := runCLI(t, c.args...)
			if code != c.code {
				t.Errorf("exit code %d, want %d", code, c.code)
			}
			if !strings.HasPrefix(stderr, "versaslot: ") || strings.Count(stderr, "versaslot: ") != 1 {
				t.Errorf("stderr %q: want the versaslot: prefix exactly once", stderr)
			}
			if !strings.Contains(stderr, c.want) || strings.Count(stderr, "\n") != 1 {
				t.Errorf("stderr %q: want one line naming %q", stderr, c.want)
			}
		})
	}
}

// TestCLITraceAndTimeline checks the diagnostic flags: -trace prints
// exactly its first N event lines before the summary, and -timeline a
// per-slot Gantt view with the run's event counts.
func TestCLITraceAndTimeline(t *testing.T) {
	run := func(args ...string) string {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "VERSASLOT_CLI=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return string(out)
	}
	lines := strings.Split(run("-policy", "nimblock", "-apps", "2", "-trace", "5"), "\n")
	for i, l := range lines[:5] {
		if !strings.HasPrefix(l, "t=") {
			t.Errorf("line %d %q is not an event line", i, l)
		}
	}
	if strings.HasPrefix(lines[5], "t=") {
		t.Errorf("-trace 5 printed more than 5 event lines: %q", lines[5])
	}
	out := run("-topology", "farm", "-pairs", "2", "-condition", "stress", "-apps", "6", "-timeline")
	for _, want := range []string{"timeline: 0 .. ", "\nboard 0 slot  0 |", "\nevents: pr-req="} {
		if !strings.Contains(out, want) {
			t.Errorf("-timeline output has no %q", want)
		}
	}
}
