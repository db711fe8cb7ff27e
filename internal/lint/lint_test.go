package lint

import (
	"flag"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata expected.txt goldens from current analyzer output")

// fixtureCases maps each testdata fixture to whether it is analyzed as a
// deterministic-zone package (the zone-only analyzers skip it otherwise).
var fixtureCases = []struct {
	name   string
	inZone bool
}{
	{"maprange", true},
	{"walltime", true},
	{"globalmut", true},
	{"atomicmix", false},
	{"errdrop", false},
	{"suppress", true},
}

// TestFixtures runs the full suite over each seeded-bug fixture package and
// compares the diagnostics against the fixture's expected.txt golden.
// Regenerate goldens with `go test ./internal/lint -run TestFixtures -update`.
func TestFixtures(t *testing.T) {
	var patterns []string
	for _, tc := range fixtureCases {
		patterns = append(patterns, "./testdata/"+tc.name)
	}
	pkgs, err := Load(".", patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(fixtureCases) {
		t.Fatalf("loaded %d fixture packages, want %d", len(pkgs), len(fixtureCases))
	}
	byName := map[string]*Package{}
	for _, p := range pkgs {
		byName[path.Base(p.Types.Path())] = p
	}
	for _, tc := range fixtureCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.name)
			p := byName[tc.name]
			if p == nil {
				t.Fatalf("%s was not loaded", dir)
			}
			p.InZone = tc.inZone
			var lines []string
			for _, f := range Run([]*Package{p}) {
				f.Pos.Filename = filepath.Base(f.Pos.Filename)
				lines = append(lines, f.String())
			}
			got := strings.Join(lines, "\n")
			if got != "" {
				got += "\n"
			}
			golden := filepath.Join(dir, "expected.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if want := string(wantBytes); got != want {
				t.Errorf("diagnostics mismatch\n--- want\n%s--- got\n%s", want, got)
			}
		})
	}
}

// TestZoneClassification pins the deterministic-zone membership rule: the
// zone covers internal/<pkg> and its subpackages for the enumerated
// packages, and nothing host-side.
func TestZoneClassification(t *testing.T) {
	inZone := []string{
		"internal/sim", "internal/proto", "internal/machine", "internal/cache",
		"internal/directory", "internal/mesh", "internal/wbuffer", "internal/shm",
		"internal/psync", "internal/check", "internal/check/litmus",
		"internal/trace", "internal/stats",
	}
	outOfZone := []string{
		".", "cmd/zsim", "cmd/zlint", "internal/runner", "internal/prof",
		"internal/benchrec", "internal/metrics", "internal/workload",
		"internal/lint", "internal/simulator", "internal/statsd",
	}
	for _, rel := range inZone {
		if !inZoneDir(rel) {
			t.Errorf("inZoneDir(%q) = false, want true", rel)
		}
	}
	for _, rel := range outOfZone {
		if inZoneDir(rel) {
			t.Errorf("inZoneDir(%q) = true, want false", rel)
		}
	}
}

// TestExpandPatterns checks that Load expands patterns as the go tool
// does, on this package's directory: "./..." matches this package and
// skips the fixture packages under testdata.
func TestExpandPatterns(t *testing.T) {
	pkgs, err := Load(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var sawLint, sawTestdata bool
	for _, p := range pkgs {
		if p.Types.Path() == "zsim/internal/lint" {
			sawLint = true
		}
		if strings.Contains(p.Types.Path(), "testdata") {
			sawTestdata = true
		}
	}
	if !sawLint {
		t.Error("./... did not include internal/lint")
	}
	if sawTestdata {
		t.Error("./... descended into a testdata directory")
	}

	one, err := Load(".", []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Fatalf("plain-dir pattern matched %d packages, want 1", len(one))
	}

	if _, err := Load(".", []string{"./testdata"}); err == nil {
		t.Error("expected an error for a directory with no buildable Go files")
	}
}

// TestCleanTree is the gate's own gate: the current tree must produce zero
// findings, so `make lint` stays green and any new violation fails this
// test even before CI runs the CLI. It lints what `make lint` lints: the
// module and the nested bench module, which "./..." does not reach.
// Skipped in -short mode: on a cold build cache the load compiles every
// package for its export data.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load compiles the module on a cold build cache")
	}
	pkgs := loadGate(t)
	sawBench := false
	for _, p := range pkgs {
		sawBench = sawBench || p.Types.Path() == "zsim/bench"
	}
	if !sawBench {
		t.Error("the lint gate's load does not include zsim/bench")
	}
	for _, f := range Run(pkgs) {
		t.Errorf("%s", f)
	}
}
