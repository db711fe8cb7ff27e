package lint

import (
	"testing"
	"time"
)

// loadModule loads every package of the module once, outside any timed
// region, so the budget and benchmark measure analysis alone.
func loadModule(tb testing.TB) []*Package {
	tb.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		tb.Fatal(err)
	}
	pkgs, err := NewLoader().Load(root, []string{"./..."})
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
		t.Skip("whole-program load in -short mode")
	}
	pkgs := loadModule(t)
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
	pkgs := loadModule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Run(pkgs)
	}
}
