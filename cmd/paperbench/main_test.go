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
