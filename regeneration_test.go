package zsim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/regeneration.golden from the current simulator")

// TestRegenerationGolden is the simulator's identity gate. With metrics on,
// it runs what a bare `paperbench` runs (every experiment of the
// regeneration index, then the claim verdicts) and pins the deterministic
// part of the global metric snapshot: every counter, gauge and histogram
// except the host-side runner.* family. It then appends the scalability
// family S1..S4 at 64 and 256 processors, which the regeneration does not
// run. A change to simulated timing, traffic or scheduling shows up as a
// diff. After an intentional change, regenerate with
// `go test . -run TestRegenerationGolden -update` and review the diff.
//
// The test never calls t.Parallel: the metrics registry is process-global.
func TestRegenerationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale regeneration plus S1..S4 at 256 processors")
	}
	params := DefaultParams(16)
	var b strings.Builder
	withMetrics(true, func() {
		for _, e := range Experiments() {
			if _, err := e.Run(ScaleSmall, params); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
		}
		if _, _, err := EvaluateClaims(ScaleSmall, params); err != nil {
			t.Fatal(err)
		}
		b.WriteString("--- metrics ---\n")
		b.WriteString(simOnly(GlobalMetrics()).String())
	})
	for _, e := range ScalingExperiments([]int{64, 256}) {
		art, err := e.Run(ScaleSmall, params)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&b, "\n--- %s: %s ---\n%s", e.ID, e.Title, art.Render())
	}
	got := b.String()

	golden := filepath.Join("testdata", "regeneration.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("regeneration drifted from %s\n--- want\n%s--- got\n%s", golden, want, got)
	}
}
