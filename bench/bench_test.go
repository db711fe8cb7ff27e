package main

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"zsim/internal/apps/maxflow"
	"zsim/internal/machine"
	"zsim/internal/memsys"
	"zsim/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from a seed-0 pass over every cell")

func golden(t *testing.T) map[string]string {
	t.Helper()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGoldenDigests runs every cell of every workload once at seed 0 and
// compares its digest with testdata/digests.json. Regenerate with
// `go test -run TestGoldenDigests -update` after an intentional change to
// simulated timing, and review the diff.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("runs every cell at paper scale")
	}
	got := map[string]string{}
	for _, w := range workloads() {
		for i, c := range runPass(w, 0, false).cells {
			id := w.cells[i].id()
			if c.err != nil {
				t.Errorf("%s: %v", id, c.err)
			}
			if prev, ok := got[id]; ok && prev != c.digest {
				t.Errorf("%s: digest %s in %s, %s earlier", id, c.digest, w.name, prev)
			}
			got[id] = c.digest
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "digests.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := golden(t)
	for id, d := range got {
		if want[id] != d {
			t.Errorf("%s: digest %s, golden %q", id, d, want[id])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cells, the workloads have %d", len(want), len(got))
	}
}

// benchmarkJSON is the part of the repository's BENCHMARK.json that names
// the metrics.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs one traced round (an untraced and a traced pass) over the
// first two cells of every workload, or one tiny cell under -short. Every
// metric BENCHMARK.json names must come out with its unit, no cell may
// fail, and the traced digests must equal the untraced ones (check counts a
// mismatch as a failure).
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	g := golden(t)
	for _, w := range workloads() {
		w := *w
		n := 2
		if testing.Short() {
			if w.name != "paper-grid" {
				continue
			}
			n = 1
		}
		w.cells = w.cells[:n]
		t.Run(w.name, func(t *testing.T) {
			r, err := measure(&w, options{traced: true, rounds: 1}, g)
			if err != nil {
				t.Fatal(err)
			}
			if r.attempted != 2*n || r.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", r.attempted, r.failed, r.errs)
			}
			wantNames(t, endToEnd(r), bj.EndToEnd)
			wantNames(t, perLayer(r), bj.PerLayer)
			for _, s := range endToEnd(r) {
				if median(s.samples) <= 0 {
					t.Errorf("%s = %g, want > 0", s.name, median(s.samples))
				}
			}
		})
	}
}

func wantNames(t *testing.T, got []series, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	units := map[string]string{}
	for _, s := range got {
		if len(s.samples) == 0 {
			t.Errorf("%s: no samples", s.name)
		}
		units[s.name] = s.unit
	}
	for _, m := range want {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("%s: unit %q (present %t), BENCHMARK.json says %q", m.Name, u, ok, m.Unit)
		}
	}
}

// TestWrapMemInterfaces checks that the timing decorator offers
// memsys.TokenSystem exactly when the wrapped system does, and always
// forwards metrics.Publisher: the machine type-asserts Mem for both.
func TestWrapMemInterfaces(t *testing.T) {
	for _, k := range memsys.Kinds() {
		m, err := machine.New(k, memsys.Default(4))
		if err != nil {
			t.Fatal(err)
		}
		wrapped, _ := wrapMem(m.Mem)
		_, innerToken := m.Mem.(memsys.TokenSystem)
		_, outerToken := wrapped.(memsys.TokenSystem)
		if innerToken != outerToken {
			t.Errorf("%s: TokenSystem %t, wrapped %t", k, innerToken, outerToken)
		}
		if _, ok := wrapped.(metrics.Publisher); !ok {
			t.Errorf("%s: wrapped system does not forward PublishMetrics", k)
		}
	}
}

// TestSyncLoop pins the premises of the kernel microbenchmarks: two
// lockstep processors switch on every Sync, and a lone one never does.
func TestSyncLoop(t *testing.T) {
	const n = 1000
	e, _ := syncLoop(2, n)
	if e.FastPathHits() != 0 || e.Switches() < 2*n {
		t.Errorf("two processors: %d switches, %d fast-path hits; want >= %d and 0", e.Switches(), e.FastPathHits(), 2*n)
	}
	e, _ = syncLoop(1, n)
	if e.FastPathHits() != n {
		t.Errorf("one processor: %d fast-path hits, want %d", e.FastPathHits(), n)
	}
}

// TestPagedPageLen pins pagedPageLen to memsys.Paged's real page size.
func TestPagedPageLen(t *testing.T) {
	var p memsys.Paged[uint64]
	p.At(pagedPageLen - 1)
	if p.Pages() != 1 {
		t.Fatalf("index %d opened %d pages, want 1", pagedPageLen-1, p.Pages())
	}
	p.At(pagedPageLen)
	if p.Pages() != 2 {
		t.Fatalf("index %d opened %d pages in all, want 2", pagedPageLen, p.Pages())
	}
}

// TestRelabel checks that relabeling keeps the network's maximum flow and
// leaves adjacency lists that list each vertex's own arcs.
func TestRelabel(t *testing.T) {
	g := maxflow.Generate(40, 80, 20, 5)
	want := maxflow.MaxFlowEK(g)
	relabel(g, rand.New(rand.NewSource(3)))
	for v := 0; v < g.N; v++ {
		for i := g.AdjStart[v]; i < g.AdjStart[v+1]; i++ {
			if a := g.AdjArcs[i]; g.Tail[a] != v {
				t.Fatalf("vertex %d lists arc %d leaving %d", v, a, g.Tail[a])
			}
		}
	}
	if got := maxflow.MaxFlowEK(g); got != want {
		t.Errorf("max flow %d after relabeling, %d before", got, want)
	}
}

// TestHistQuantile checks the bucket search on a small histogram.
func TestHistQuantile(t *testing.T) {
	buckets := []float64{0, 1, 2, 3}
	counts := []uint64{1, 8, 1}
	if q := histQuantile(counts, buckets, 0.5); q != 2 {
		t.Errorf("p50 = %g, want 2", q)
	}
	if q := histQuantile(counts, buckets, 0.99); q != 3 {
		t.Errorf("p99 = %g, want 3", q)
	}
	if q := histQuantile([]uint64{0, 0, 0}, buckets, 0.5); q != 0 {
		t.Errorf("empty p50 = %g, want 0", q)
	}
}
