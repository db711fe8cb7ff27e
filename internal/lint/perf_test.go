package lint

import (
	"sync"
	"testing"
	"time"
)

// gateLoad is the load every whole-tree test shares, made once per test
// binary: the packages `make lint` names, "./..." and the nested bench
// module.
var gateLoad = sync.OnceValues(func() ([]*Package, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return Load(root, []string{"./...", "./bench/..."})
})

// loadGate returns the shared load, outside any timed region, so the
// budget and benchmark measure analysis alone.
func loadGate(tb testing.TB) []*Package {
	tb.Helper()
	pkgs, err := gateLoad()
	if err != nil {
		tb.Fatal(err)
	}
	return pkgs
}

// TestLintTimeBudget guards the whole-module analysis wall-time: the full
// suite over pre-loaded packages must stay within a budget an order of
// magnitude above today's cost, so a superlinear regression in an analyzer
// trips this long before it hangs CI.
func TestLintTimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load compiles the module on a cold build cache")
	}
	pkgs := loadGate(t)
	start := time.Now()
	findings := Run(pkgs)
	elapsed := time.Since(start)
	const budget = 30 * time.Second
	if elapsed > budget {
		t.Errorf("whole-module lint took %v, budget %v", elapsed, budget)
	}
	t.Logf("whole-module lint: %v, %d finding(s)", elapsed, len(findings))
}

// BenchmarkZlintModule measures the full analysis suite over the whole
// module (packages pre-loaded). Run it on both sides of a lint-engine
// change: `go test -run '^$' -bench ZlintModule -count 10 ./internal/lint`.
func BenchmarkZlintModule(b *testing.B) {
	pkgs := loadGate(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Run(pkgs)
	}
}
