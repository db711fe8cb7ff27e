package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestJSONFindingFieldOrder pins the -json contract: encoding/json emits
// struct fields in declaration order, so the output must read file, line,
// col, analyzer, message — consumers diff it textually, not just
// structurally, and a field reorder would break those diffs silently.
func TestJSONFindingFieldOrder(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode([]jsonFinding{{
		File: "internal/sim/sim.go", Line: 3, Col: 7,
		Analyzer: "walltime", Message: "m",
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := `[
  {
    "file": "internal/sim/sim.go",
    "line": 3,
    "col": 7,
    "analyzer": "walltime",
    "message": "m"
  }
]
`
	if buf.String() != want {
		t.Errorf("-json encoding:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// zlintIn runs zlint in-process with dir (relative to this package) as the
// working directory, so that patterns resolve against dir as they would
// from a shell there.
func zlintIn(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// errdropFindings are the errdrop fixture's findings as zlint prints them,
// relative to the module root.
const errdropFindings = `internal/lint/testdata/errdrop/a.go:17: errdrop: error result of (*os.File).Close is discarded; handle it or assign it to _
internal/lint/testdata/errdrop/a.go:27: errdrop: error result of os.Remove is discarded; handle it or assign it to _
internal/lint/testdata/errdrop/a.go:28: errdrop: error result of cleanup is discarded; handle it or assign it to _
`

// TestExitStatus drives zlint's exit contract: 0 for a clean package, 1
// with the findings on stdout, and 2 for a pattern that matches no
// package, so a mistyped pattern never passes silently. Error messages
// name the pattern as it was typed, whatever the checkout's path.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name, dir string
		args      []string
		want      int
		stdout    string
		stderr    string
	}{
		{"clean", "../..", []string{"./internal/sim"}, 0, "", ""},
		{"findings", "../..", []string{"./internal/lint/testdata/errdrop"}, 1, errdropFindings, "zlint: 3 finding(s)\n"},
		// Patterns resolve against the working directory, not the module
		// root; paths print relative to the module root all the same.
		{"dot in fixture", "../../internal/lint/testdata/errdrop", []string{"."}, 1, errdropFindings, "zlint: 3 finding(s)\n"},
		{"missing dir", "../..", []string{"./nonexistent/..."}, 2, "",
			"zlint: ./nonexistent/...: pattern ./nonexistent/...: lstat ./nonexistent/: no such file or directory\n"},
		{"only testdata", "../..", []string{"./internal/lint/testdata/..."}, 2, "",
			"zlint: ./internal/lint/testdata/...: matched no packages\n"},
		// Below the module root, errors still name the pattern as typed;
		// go's own text quotes it relative to the module root.
		{"missing dir below", "../../internal/sim", []string{"../nonexistent/..."}, 2, "",
			"zlint: ../nonexistent/...: pattern ./internal/nonexistent/...: lstat ./internal/nonexistent/: no such file or directory\n"},
		{"only testdata below", "../../internal/lint", []string{"./testdata/..."}, 2, "",
			"zlint: ./testdata/...: matched no packages\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := zlintIn(t, tc.dir, tc.args...)
			if code != tc.want {
				t.Fatalf("exit status %d, want %d (stderr: %s)", code, tc.want, stderr)
			}
			if stdout != tc.stdout {
				t.Errorf("stdout:\n%s\nwant:\n%s", stdout, tc.stdout)
			}
			if stderr != tc.stderr {
				t.Errorf("stderr %q, want %q", stderr, tc.stderr)
			}
		})
	}
}

// TestJSONMatchesText: -json reports the same findings as the text output,
// with the same exit status.
func TestJSONMatchesText(t *testing.T) {
	code, stdout, stderr := zlintIn(t, "../..", "-json", "./internal/lint/testdata/errdrop")
	if code != 1 {
		t.Fatalf("exit status %d, want 1 (stderr: %s)", code, stderr)
	}
	var findings []jsonFinding
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("stdout is not a JSON array of findings: %v\n%s", err, stdout)
	}
	var text strings.Builder
	for _, f := range findings {
		fmt.Fprintf(&text, "%s:%d: %s: %s\n", f.File, f.Line, f.Analyzer, f.Message)
	}
	if text.String() != errdropFindings {
		t.Errorf("-json findings:\n%s\nwant:\n%s", text.String(), errdropFindings)
	}
}
