package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExpCSVMetrics runs the command as `paperbench -exp E13 -csv -metrics`:
// -csv must reach a single experiment's table, and -metrics must print the
// snapshot after it, not only after the full regeneration.
func TestExpCSVMetrics(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "E13", "-csv", "-metrics"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr:\n%s", code, stderr.String())
	}
	got := stdout.String()
	if !strings.HasPrefix(got, "threads/node,streams,") {
		t.Errorf("output does not open with E13's CSV header:\n%s", got)
	}
	if !strings.Contains(got, "\n--- metrics ---\n") || !strings.Contains(got, "\nmachine.runs ") {
		t.Errorf("output has no metrics section:\n%s", got)
	}
}

// TestBadTable: the paper has one table, so `-table 2` must fail with exit
// status 1 and print nothing on stdout, instead of falling through to the
// full regeneration.
func TestBadTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-table", "2"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout is not empty:\n%s", stdout.String())
	}
	if want := "paperbench: no table 2 in the paper (want 1)\n"; stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
}

// TestScalingProcsFlag: -scaling-procs is read up front, by the parser
// zsim uses too. A list of positive sizes reaches the S family; an empty or
// non-positive entry fails with exit status 1, a line naming the flag on
// stderr and nothing on stdout, whatever mode was asked for.
func TestScalingProcsFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // on stdout when the command succeeds
		bad  string // the rejected entry, or "" when the command succeeds
	}{
		{args: []string{"-list", "-scaling-procs", "16, 32"}, want: "S1   scaling: cholesky overhead classes vs P on RCinv [16 32]\n"},
		{args: []string{"-list", "-scaling-procs", ""}, want: "S4   scaling: nbody overhead classes vs P on RCinv [64 256 1024]\n"},
		{args: []string{"-exp", "S1", "-scaling-procs", "16,,64,"}, bad: `""`},
		{args: []string{"-list", "-scaling-procs", "16,0"}, bad: `"0"`},
		{args: []string{"-list", "-scaling-procs", "-4"}, bad: `"-4"`},
		{args: []string{"-table", "1", "-scaling-procs", "abc"}, bad: `"abc"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if tc.bad == "" {
				if code != 0 || !strings.Contains(stdout.String(), tc.want) {
					t.Fatalf("exit status %d, stdout:\n%s\nwant it to hold %q (stderr: %s)", code, stdout.String(), tc.want, stderr.String())
				}
				return
			}
			if code != 1 || stdout.Len() != 0 {
				t.Fatalf("exit status %d, stdout:\n%s\nwant status 1 and no output", code, stdout.String())
			}
			if msg := stderr.String(); !strings.HasPrefix(msg, "paperbench: -scaling-procs: ") || !strings.Contains(msg, "bad machine size "+tc.bad) {
				t.Fatalf("stderr %q, want a paperbench: -scaling-procs: line naming the entry %s", msg, tc.bad)
			}
		})
	}
}
