package workload

import (
	"zsim/internal/memsys"
	"zsim/internal/stats"
)

// Artifact is a renderable experiment result (a stats.Table or
// stats.Figure).
type Artifact interface {
	Render() string
	Markdown() string
}

// Experiment is one entry of DESIGN.md's per-experiment index: a paper
// artifact (figure, table, or claim) with the code that regenerates it.
type Experiment struct {
	ID    string // E1..E17, matching DESIGN.md
	Title string
	Run   func(scale Scale, p memsys.Params) (Artifact, error)
}

// Experiments returns the full regeneration index, in DESIGN.md order.
func Experiments() []Experiment {
	fig := func(n int) func(Scale, memsys.Params) (Artifact, error) {
		return func(sc Scale, p memsys.Params) (Artifact, error) { return Figure(n, sc, p) }
	}
	return []Experiment{
		{"E1", "Figure 2: Cholesky on the five systems", fig(2)},
		{"E2", "Figure 3: Integer Sort on the five systems", fig(3)},
		{"E3", "Figure 4: Maxflow on the five systems", fig(4)},
		{"E4", "Figure 5: Barnes-Hut on the five systems", fig(5)},
		{"E5", "Table 1: inherent communication on the z-machine", func(sc Scale, p memsys.Params) (Artifact, error) {
			t, _, err := Table1(sc, p)
			return t, err
		}},
		{"E6", "§5 claim: z-machine matches PRAM", func(sc Scale, p memsys.Params) (Artifact, error) {
			return ZvsPRAM(sc, p)
		}},
		{"E7", "§6 ablation: store buffer depth (IS/RCinv)", func(sc Scale, p memsys.Params) (Artifact, error) {
			return StoreBufferSweep("is", sc, memsys.KindRCInv, p, []int{1, 2, 4, 8, 16})
		}},
		{"E8", "§6 ablation: network speed (Maxflow/RCupd)", func(sc Scale, p memsys.Params) (Artifact, error) {
			return NetworkSweep("maxflow", sc, memsys.KindRCUpd, p, []float64{0.4, 0.8, 1.6, 3.2})
		}},
		{"E9", "§4 ablation: competitive threshold (Barnes-Hut/RCcomp)", func(sc Scale, p memsys.Params) (Artifact, error) {
			return ThresholdSweep("nbody", sc, p, []int{1, 2, 4, 8})
		}},
		{"E10", "§7 open issue: finite caches (Barnes-Hut/RCinv)", func(sc Scale, p memsys.Params) (Artifact, error) {
			return FiniteCacheSweep("nbody", sc, memsys.KindRCInv, p, []int{16, 64, 256})
		}},
		{"E11", "§6 suggestion: prefetching (Cholesky/RCinv)", func(sc Scale, p memsys.Params) (Artifact, error) {
			return PrefetchSweep("cholesky", sc, p, []int{0, 1, 2, 4})
		}},
		{"E12", "§5 baseline framing: SCinv vs RCinv", func(sc Scale, p memsys.Params) (Artifact, error) {
			return SCvsRC(sc, p)
		}},
		{"E13", "§7 open issue: multithreading (Maxflow/RCinv, 4 nodes)", func(sc Scale, p memsys.Params) (Artifact, error) {
			return MultithreadSweep("maxflow", sc, memsys.KindRCInv, p, 4, []int{1, 2, 4})
		}},
		{"E14", "scalability framing: IS/RCinv speedup", func(sc Scale, p memsys.Params) (Artifact, error) {
			return ScalabilitySweep("is", sc, memsys.KindRCInv, p, []int{1, 2, 4, 8, 16})
		}},
		{"E15", "§6 proposal: RCinv vs RCsync (decoupled data flow)", func(sc Scale, p memsys.Params) (Artifact, error) {
			return RCSyncComparison(sc, p)
		}},
		{"E16", "SPASM topology choice (Maxflow/RCinv)", func(sc Scale, p memsys.Params) (Artifact, error) {
			return TopologySweep("maxflow", sc, memsys.KindRCInv, p, []string{"mesh", "torus", "hypercube", "xbar", "bus"})
		}},
		{"E17", "elimination ordering: natural vs nested dissection (Cholesky/RCinv)", func(sc Scale, p memsys.Params) (Artifact, error) {
			return OrderingSweep(sc, memsys.KindRCInv, p)
		}},
		{"E18", "directory pointers: full-map vs Dir-i (Barnes-Hut/RCinv)", func(sc Scale, p memsys.Params) (Artifact, error) {
			return DirPointerSweep("nbody", sc, memsys.KindRCInv, p, []int{2, 4, 8})
		}},
		{"E19", "coherence unit: line size vs false sharing (IS/RCinv)", func(sc Scale, p memsys.Params) (Artifact, error) {
			return LineSizeSweep("is", sc, memsys.KindRCInv, p, []int{8, 16, 32, 64, 128})
		}},
		{"E20", "z-machine oracle: broadcast counter (§3) vs perfect per-consumer (§2.2)", func(sc Scale, p memsys.Params) (Artifact, error) {
			return OracleSweep(sc, p)
		}},
	}
}

// FindExperiment returns the experiment with the given ID, searching both
// the regeneration index (E1..) and the scalability family (S1..) at its
// default machine sizes.
func FindExperiment(id string) (Experiment, error) {
	return FindExperimentScaled(id, nil)
}

// Compile-time checks that both artifact types satisfy the interface.
var (
	_ Artifact = (*stats.Table)(nil)
	_ Artifact = (*stats.Figure)(nil)
)
