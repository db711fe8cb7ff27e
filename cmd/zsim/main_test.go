package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zsim"
)

// paramsFile writes a JSON Params file for -params and returns its path.
func paramsFile(t *testing.T, js string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "params.json")
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckJSONExitStatus: under -json the conformance checker's verdict
// still sets the exit status. stdout stays one JSON result and the
// violations go to stderr.
func TestCheckJSONExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name, params string
		want         int
	}{
		{"drop-update", `{"Procs":8,"FaultInjection":"drop-update"}`, 1},
		{"no-fault", `{"Procs":8}`, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-app", "is", "-system", "rcupd", "-params", paramsFile(t, tc.params), "-check", "-json"}
			if got := run(args, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit status %d, want %d (stderr: %s)", got, tc.want, stderr.String())
			}
			var res zsim.Result
			if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
				t.Fatalf("stdout is not one JSON result: %v\n%s", err, stdout.String())
			}
			if res.App != "is" || res.System != "rcupd" || res.ExecTime == 0 {
				t.Fatalf("decoded result %s/%s in %d cycles", res.App, res.System, res.ExecTime)
			}
			if named := strings.Contains(stderr.String(), "VIOLATION"); named != (tc.want != 0) {
				t.Fatalf("stderr names a violation: %v, want %v:\n%s", named, tc.want != 0, stderr.String())
			}
		})
	}
}

// TestAllTitleUsesParamsProcs: -all titles the figure with the machine it
// ran, so a -params file's processor count wins over the -procs default.
func TestAllTitleUsesParamsProcs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-app", "is", "-all", "-params", paramsFile(t, `{"Procs":8}`)}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit status %d (stderr: %s)", got, stderr.String())
	}
	first, _, _ := strings.Cut(stdout.String(), "\n")
	if !strings.Contains(first, "8 processors") {
		t.Fatalf("title %q does not name the 8-processor machine", first)
	}
}

// TestBadMachineFlags: an unknown -scale and a -threads that does not
// divide -procs fail like every other bad flag, with exit status 1, a
// "zsim: ..." line on stderr and nothing on stdout, before anything runs.
func TestBadMachineFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "smal"}, `unknown scale "smal"`},
		{[]string{"-scale", "Paper", "-all"}, `unknown scale "Paper"`},
		{[]string{"-threads", "3", "-procs", "16"}, "HWThreads = 3 must divide Procs = 16"},
		{[]string{"-threads", "0"}, "HWThreads = 0 must divide Procs = 16"},
		{[]string{"-threads", "-2"}, "HWThreads = -2 must divide Procs = 16"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != 1 {
				t.Fatalf("exit status %d, want 1 (stderr: %s)", got, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("wrote to stdout:\n%s", stdout.String())
			}
			if msg := stderr.String(); !strings.HasPrefix(msg, "zsim: ") || !strings.Contains(msg, tc.want) {
				t.Fatalf("stderr %q, want a zsim: line naming %q", msg, tc.want)
			}
		})
	}
}
