package workload

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"zsim/internal/apps"
	"zsim/internal/apps/intsort"
	"zsim/internal/machine"
	"zsim/internal/memsys"
	"zsim/internal/stats"
)

// cached runs one (app, system) combination at small scale once per test
// binary — the shape tests below all share results.
var (
	cacheMu sync.Mutex
	cache   = map[string]*stats.Result{}
)

func run(t *testing.T, app string, kind memsys.Kind) *stats.Result {
	t.Helper()
	key := app + "/" + string(kind)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if r, ok := cache[key]; ok {
		return r
	}
	r, err := Run(app, ScaleSmall, kind, memsys.Default(16))
	if err != nil {
		t.Fatalf("%s on %s: %v", app, kind, err)
	}
	cache[key] = r
	return r
}

func TestUnknownApp(t *testing.T) {
	if _, err := NewApp("doom", ScaleSmall); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Figure(7, ScaleSmall, memsys.Default(16)); err == nil {
		t.Fatal("expected error for figure 7")
	}
}

func TestAllAppsConstructAtBothScales(t *testing.T) {
	for _, name := range AppNames() {
		for _, sc := range []Scale{ScaleSmall, ScalePaper} {
			if _, err := NewApp(name, sc); err != nil {
				t.Errorf("NewApp(%s, %s): %v", name, sc, err)
			}
		}
	}
}

// --- The paper's headline result (§5, Table 1) ---

// On the z-machine the only possible cost is inherent-communication read
// stall, and for all four applications it is virtually zero.
func TestZMachineZeroOverhead(t *testing.T) {
	for _, app := range AppNames() {
		r := run(t, app, memsys.KindZMachine)
		if r.TotalWriteStall() != 0 || r.TotalBufferFlush() != 0 {
			t.Errorf("%s: z-machine write stall/buffer flush nonzero: %s", app, r)
		}
		if pct := r.OverheadPct(); pct > 1.0 {
			t.Errorf("%s: z-machine overhead %.2f%%, paper reports ~0%%", app, pct)
		}
	}
}

// The z-machine's performance matches the PRAM's (paper §5: "the
// performance on the z-machine for these applications matches what would
// be observed on a PRAM").
func TestZMachineMatchesPRAM(t *testing.T) {
	for _, app := range AppNames() {
		z := run(t, app, memsys.KindZMachine)
		p := run(t, app, memsys.KindPRAM)
		ratio := float64(z.ExecTime) / float64(p.ExecTime)
		if ratio > 1.02 || ratio < 0.999 {
			t.Errorf("%s: zmc/pram exec ratio %.4f, want ≈1", app, ratio)
		}
	}
}

// No real memory system beats the z-machine.
func TestZMachineIsLowerBound(t *testing.T) {
	for _, app := range AppNames() {
		z := run(t, app, memsys.KindZMachine)
		for _, kind := range memsys.FigureKinds()[1:] {
			r := run(t, app, kind)
			if r.ExecTime < z.ExecTime {
				t.Errorf("%s: %s exec %d beats the z-machine's %d", app, kind, r.ExecTime, z.ExecTime)
			}
		}
	}
}

// --- Figure-level shape claims (§5) ---

// "Significant difference in the read stall times between RCinv and RCupd
// implies data reuse. This is true for Barnes-Hut and Maxflow, and not true
// for Cholesky and IS."
func TestDataReuseSignature(t *testing.T) {
	ratio := func(app string) float64 {
		inv := run(t, app, memsys.KindRCInv)
		upd := run(t, app, memsys.KindRCUpd)
		return float64(upd.TotalReadStall()) / float64(inv.TotalReadStall())
	}
	for _, app := range []string{"nbody", "maxflow"} {
		if r := ratio(app); r > 0.6 {
			t.Errorf("%s: RCupd/RCinv read-stall ratio %.2f, expected <0.6 (data reuse)", app, r)
		}
	}
	for _, app := range []string{"cholesky", "is"} {
		if r := ratio(app); r < 0.55 {
			t.Errorf("%s: RCupd/RCinv read-stall ratio %.2f, expected >0.55 (no reuse)", app, r)
		}
	}
}

// "The dominant component of the overheads for RCinv is the read stall
// time, and it is significantly higher than those observed for the other
// three memory systems" — checked on the reuse applications.
func TestRCInvReadStallDominates(t *testing.T) {
	for _, app := range AppNames() {
		r := run(t, app, memsys.KindRCInv)
		if r.TotalReadStall() <= r.TotalWriteStall()+r.TotalBufferFlush() {
			t.Errorf("%s: RCinv read stall (%d) should dominate other overheads (%d+%d)",
				app, r.TotalReadStall(), r.TotalWriteStall(), r.TotalBufferFlush())
		}
	}
}

// "The write stall times for RCinv are significantly lower when compared to
// the other three" — visible where update traffic is heavy (Barnes-Hut).
func TestUpdateWriteCosts(t *testing.T) {
	inv := run(t, "nbody", memsys.KindRCInv)
	upd := run(t, "nbody", memsys.KindRCUpd)
	if upd.TotalWriteStall() <= inv.TotalWriteStall() {
		t.Errorf("nbody: RCupd write stall (%d) should exceed RCinv's (%d)",
			upd.TotalWriteStall(), inv.TotalWriteStall())
	}
}

// "The use of merge buffer results in a significant increase of buffer
// flush time for RCupd, RCcomp, and RCadapt compared to RCinv."
func TestMergeBufferFlushCost(t *testing.T) {
	for _, app := range AppNames() {
		inv := run(t, app, memsys.KindRCInv)
		for _, kind := range []memsys.Kind{memsys.KindRCUpd, memsys.KindRCComp, memsys.KindRCAdapt} {
			u := run(t, app, kind)
			// IS barely exercises the merge buffer, so allow equality
			// within noise (0.9×) rather than strict dominance.
			if float64(u.TotalBufferFlush()) < 0.9*float64(inv.TotalBufferFlush()) {
				t.Errorf("%s: %s buffer flush (%d) below RCinv's (%d)",
					app, kind, u.TotalBufferFlush(), inv.TotalBufferFlush())
			}
		}
	}
}

// "In Maxflow the producer-consumer relationship is more random making the
// read stall times for RCcomp and RCadapt similar to that of RCinv"; for
// Barnes-Hut's stable pattern, RCadapt exploits reuse like an update
// protocol.
func TestAdaptiveFollowsSharingPattern(t *testing.T) {
	invMF := run(t, "maxflow", memsys.KindRCInv)
	adaptMF := run(t, "maxflow", memsys.KindRCAdapt)
	if float64(adaptMF.TotalReadStall()) < 0.7*float64(invMF.TotalReadStall()) {
		t.Errorf("maxflow: RCadapt read stall (%d) should stay near RCinv's (%d) on a random pattern",
			adaptMF.TotalReadStall(), invMF.TotalReadStall())
	}
	invBH := run(t, "nbody", memsys.KindRCInv)
	adaptBH := run(t, "nbody", memsys.KindRCAdapt)
	if float64(adaptBH.TotalReadStall()) > 0.5*float64(invBH.TotalReadStall()) {
		t.Errorf("nbody: RCadapt read stall (%d) should be well below RCinv's (%d) on a stable pattern",
			adaptBH.TotalReadStall(), invBH.TotalReadStall())
	}
}

// "Due to the dynamic nature of RCadapt and RCcomp ... these two memory
// systems incur lesser number of messages than RCupd" — where the sharing
// set actually changes (Cholesky's queue-driven pattern).
func TestAdaptiveReducesUpdateTraffic(t *testing.T) {
	upd := run(t, "cholesky", memsys.KindRCUpd)
	for _, kind := range []memsys.Kind{memsys.KindRCAdapt, memsys.KindRCComp} {
		a := run(t, "cholesky", kind)
		if a.Counters.Updates >= upd.Counters.Updates {
			t.Errorf("cholesky: %s sent %d updates, expected fewer than RCupd's %d",
				kind, a.Counters.Updates, upd.Counters.Updates)
		}
	}
}

// Update protocols deliver useless updates (the contention source the
// paper blames for RCupd's write stalls).
func TestUselessUpdatesExist(t *testing.T) {
	r := run(t, "cholesky", memsys.KindRCUpd)
	if r.Counters.UselessUpdates == 0 {
		t.Error("cholesky on RCupd: expected useless updates")
	}
}

// --- Harness plumbing ---

func TestFigureContainsFiveSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration in -short mode")
	}
	fig, err := Figure(4, ScaleSmall, memsys.Default(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Results) != 5 {
		t.Fatalf("figure has %d results, want 5", len(fig.Results))
	}
	out := fig.Render()
	for _, k := range memsys.FigureKinds() {
		if !strings.Contains(out, string(k)) {
			t.Errorf("figure render missing %s", k)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tbl, results, err := Table1(ScaleSmall, memsys.Default(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 || len(tbl.Rows) != 4 {
		t.Fatalf("table has %d rows, want 4", len(tbl.Rows))
	}
	for _, r := range results {
		if r.Counters.Writes == 0 {
			t.Errorf("%s: no writes counted", r.App)
		}
		// The observed cost is virtually zero: a tiny fraction of the
		// aggregate execution time.
		frac := float64(r.TotalReadStall()) / (float64(r.ExecTime) * 16)
		if frac > 0.01 {
			t.Errorf("%s: observed z-machine cost fraction %.4f, want ~0", r.App, frac)
		}
	}
	if !strings.Contains(tbl.Render(), "cholesky") {
		t.Error("table render missing application rows")
	}
}

func TestZvsPRAMTable(t *testing.T) {
	tbl, err := ZvsPRAM(ScaleSmall, memsys.Default(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
}

func TestSweepsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps in -short mode")
	}
	p := memsys.Default(16)
	if _, err := StoreBufferSweep("is", ScaleSmall, memsys.KindRCInv, p, []int{1, 4}); err != nil {
		t.Error(err)
	}
	if _, err := NetworkSweep("maxflow", ScaleSmall, memsys.KindRCUpd, p, []float64{0.8, 1.6}); err != nil {
		t.Error(err)
	}
	if _, err := ThresholdSweep("maxflow", ScaleSmall, p, []int{1, 4}); err != nil {
		t.Error(err)
	}
	if _, err := FiniteCacheSweep("nbody", ScaleSmall, memsys.KindRCInv, p, []int{64}); err != nil {
		t.Error(err)
	}
	if _, err := PrefetchSweep("cholesky", ScaleSmall, p, []int{0, 2}); err != nil {
		t.Error(err)
	}
	if _, err := SCvsRC(ScaleSmall, p); err != nil {
		t.Error(err)
	}
}

// Write stall shrinks with a deeper store buffer (§6).
func TestStoreBufferSizeLowersWriteStall(t *testing.T) {
	p1 := memsys.Default(16)
	p1.StoreBufEntries = 1
	p8 := memsys.Default(16)
	p8.StoreBufEntries = 8
	small, err := Run("is", ScaleSmall, memsys.KindRCInv, p1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run("is", ScaleSmall, memsys.KindRCInv, p8)
	if err != nil {
		t.Fatal(err)
	}
	if big.TotalWriteStall() >= small.TotalWriteStall() {
		t.Errorf("write stall with 8 entries (%d) should be below 1 entry (%d)",
			big.TotalWriteStall(), small.TotalWriteStall())
	}
}

// A faster network lowers the overheads (§6).
func TestFasterNetworkLowersOverheads(t *testing.T) {
	fast := memsys.Default(16)
	fast.LinkCyclesPerByte = 0.4
	slow := memsys.Default(16)
	slow.LinkCyclesPerByte = 3.2
	f, err := Run("maxflow", ScaleSmall, memsys.KindRCUpd, fast)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Run("maxflow", ScaleSmall, memsys.KindRCUpd, slow)
	if err != nil {
		t.Fatal(err)
	}
	if f.ExecTime >= s.ExecTime {
		t.Errorf("fast network exec %d should beat slow network %d", f.ExecTime, s.ExecTime)
	}
}

// Multithreading (the §7 open issue, extension E13): with a fixed set of
// nodes, extra hardware threads overlap each other's memory stalls — on the
// stall-bound Maxflow, four threads per node must beat one.
func TestMultithreadingToleratesLatency(t *testing.T) {
	one, err := Run("maxflow", ScaleSmall, memsys.KindRCInv, memsys.DefaultMT(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run("maxflow", ScaleSmall, memsys.KindRCInv, memsys.DefaultMT(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	if four.ExecTime >= one.ExecTime {
		t.Errorf("4 threads/node exec %d should beat 1 thread/node %d", four.ExecTime, one.ExecTime)
	}
	if four.TotalCoreWait() == 0 {
		t.Error("expected core contention with 4 threads per node")
	}
}

func TestMultithreadSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	tbl, err := MultithreadSweep("is", ScaleSmall, memsys.KindRCInv, 4, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

// Every application still verifies on every memory system when the machine
// runs multithreaded.
func TestAppsCorrectUnderMultithreading(t *testing.T) {
	p := memsys.DefaultMT(16, 4)
	for _, app := range AppNames() {
		for _, kind := range []memsys.Kind{memsys.KindZMachine, memsys.KindRCInv, memsys.KindRCUpd} {
			if _, err := Run(app, ScaleSmall, kind, p); err != nil {
				t.Errorf("%s on %s (MT): %v", app, kind, err)
			}
		}
	}
}

func TestScalabilitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability sweep in -short mode")
	}
	tbl, err := ScalabilitySweep("is", ScaleSmall, memsys.KindRCInv, []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][2] != "1.00" {
		t.Fatalf("base speedup = %s, want 1.00", tbl.Rows[0][2])
	}
}

// Parallel execution on the zero-overhead machine beats sequential for the
// applications with real parallelism at small scale (IS, Barnes-Hut). The
// tiny Cholesky/Maxflow instances are legitimately communication-bound and
// only break even — asserting speedup there would be asserting noise.
func TestParallelSpeedupOnZMachine(t *testing.T) {
	for _, app := range []string{"is", "nbody"} {
		seq, err := Run(app, ScaleSmall, memsys.KindZMachine, memsys.Default(1))
		if err != nil {
			t.Fatalf("%s seq: %v", app, err)
		}
		par := run(t, app, memsys.KindZMachine)
		if float64(par.ExecTime) > 0.5*float64(seq.ExecTime) {
			t.Errorf("%s: 16 procs on zmc (%d cycles) should be well under 1 proc (%d)",
				app, par.ExecTime, seq.ExecTime)
		}
	}
}

// Interconnect topology moves the overheads the way geometry says it
// should: a crossbar (single hop, no shared links) never loses to the
// paper's mesh, and a bus is the worst at 16 nodes.
func TestTopologyOrdering(t *testing.T) {
	exec := func(topo string) memsys.Time {
		p := memsys.Default(16)
		p.Topology = topo
		r, err := Run("is", ScaleSmall, memsys.KindRCInv, p)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		return r.ExecTime
	}
	xbar, meshT, bus := exec("xbar"), exec("mesh"), exec("bus")
	if xbar > meshT {
		t.Errorf("xbar exec %d should not exceed mesh %d", xbar, meshT)
	}
	if bus < meshT {
		t.Errorf("bus exec %d should not beat mesh %d at 16 nodes", bus, meshT)
	}
}

func TestTopologySweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	tbl, err := TopologySweep("maxflow", ScaleSmall, memsys.KindRCInv, memsys.Default(16), []string{"mesh", "torus", "hypercube", "xbar", "bus"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

// All applications verify on every topology (values must not depend on the
// network model).
func TestAppsCorrectOnEveryTopology(t *testing.T) {
	for _, topo := range []string{"torus", "hypercube", "xbar", "bus"} {
		p := memsys.Default(16)
		p.Topology = topo
		if _, err := Run("is", ScaleSmall, memsys.KindRCUpd, p); err != nil {
			t.Errorf("is on %s: %v", topo, err)
		}
		if _, err := Run("maxflow", ScaleSmall, memsys.KindZMachine, p); err != nil {
			t.Errorf("maxflow on %s: %v", topo, err)
		}
	}
}

// E15: the paper's §6 proposal realized — rcsync eliminates buffer flush
// entirely and never loses to rcinv, on every application.
func TestRCSyncEliminatesBufferFlush(t *testing.T) {
	for _, app := range AppNames() {
		inv := run(t, app, memsys.KindRCInv)
		sy := run(t, app, memsys.KindRCSync)
		if sy.TotalBufferFlush() != 0 {
			t.Errorf("%s: rcsync buffer flush = %d, want 0", app, sy.TotalBufferFlush())
		}
		if sy.ExecTime > inv.ExecTime {
			t.Errorf("%s: rcsync exec %d worse than rcinv %d", app, sy.ExecTime, inv.ExecTime)
		}
	}
}

func TestRCSyncComparisonTable(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison in -short mode")
	}
	tbl, err := RCSyncComparison(ScaleSmall, memsys.Default(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestOrderingSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("ordering sweep in -short mode")
	}
	tbl, err := OrderingSweep(ScaleSmall, memsys.KindRCInv, memsys.Default(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

// Golden pins for the extension machines (multithreading, topology).
func TestGoldenVariantMachines(t *testing.T) {
	mt, err := Run("is", ScaleSmall, memsys.KindRCInv, memsys.DefaultMT(16, 4))
	if err != nil {
		t.Fatal(err)
	}
	if mt.ExecTime != 89952 {
		t.Errorf("MT is exec = %d, pinned 89952", mt.ExecTime)
	}
	p := memsys.Default(16)
	p.Topology = "hypercube"
	hc, err := Run("nbody", ScaleSmall, memsys.KindRCUpd, p)
	if err != nil {
		t.Fatal(err)
	}
	if hc.ExecTime != 593125 {
		t.Errorf("hypercube nbody exec = %d, pinned 593125", hc.ExecTime)
	}
}

// Golden determinism pins: these exact cycle counts are a property of the
// checked-in sources (the simulation is reproducible bit-for-bit). If a
// protocol or cost-model change moves them, the change is intentional —
// update the pins — but an *unintentional* drift is a timing bug this test
// exists to catch.
func TestGoldenExecutionTimes(t *testing.T) {
	pins := []struct {
		app  string
		kind memsys.Kind
		exec memsys.Time
	}{
		{"is", memsys.KindZMachine, 5663},
		{"is", memsys.KindRCInv, 218524},
		{"maxflow", memsys.KindRCUpd, 69726},
		{"nbody", memsys.KindRCAdapt, 800806},
		{"maxflow", memsys.KindRCSync, 40284},
	}
	for _, pin := range pins {
		r := run(t, pin.app, pin.kind)
		if r.ExecTime != pin.exec {
			t.Errorf("%s on %s: exec = %d cycles, pinned %d (timing model changed?)",
				pin.app, pin.kind, r.ExecTime, pin.exec)
		}
	}
}

func TestExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 20 {
		t.Fatalf("registry has %d experiments, DESIGN.md indexes 20", len(exps))
	}
	seen := map[string]bool{}
	for i, e := range exps {
		want := fmt.Sprintf("E%d", i+1)
		if e.ID != want {
			t.Errorf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete entry", e.ID)
		}
	}
	if _, err := FindExperiment("E5"); err != nil {
		t.Error(err)
	}
	if _, err := FindExperiment("E99"); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// Every registered experiment runs end to end at small scale. This is the
// repository's one-stop completeness check: if an experiment regresses,
// this fails.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("all-experiments run in -short mode")
	}
	p := memsys.Default(16)
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			art, err := e.Run(ScaleSmall, p)
			if err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Title, err)
			}
			if art.Render() == "" || art.Markdown() == "" {
				t.Fatalf("%s: empty artifact", e.ID)
			}
		})
	}
}

func TestSORRegistered(t *testing.T) {
	if _, err := NewApp("sor", ScaleSmall); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("sor", ScaleSmall, memsys.KindZMachine, memsys.Default(16)); err != nil {
		t.Fatal(err)
	}
}

// The machine-checked claims registry: every paper claim passes at small
// scale, and the registry is well formed.
func TestClaimsAllPass(t *testing.T) {
	if testing.Short() {
		t.Skip("claims in -short mode")
	}
	tbl, allOK, err := EvaluateClaims(ScaleSmall, memsys.Default(16))
	if err != nil {
		t.Fatal(err)
	}
	if !allOK {
		t.Fatalf("claims failed:\n%s", tbl.Render())
	}
	if len(tbl.Rows) != len(Claims()) {
		t.Fatalf("verdict rows %d != claims %d", len(tbl.Rows), len(Claims()))
	}
	ids := map[string]bool{}
	for _, c := range Claims() {
		if c.ID == "" || c.Text == "" || c.Check == nil {
			t.Fatalf("claim %+v incomplete", c.ID)
		}
		if ids[c.ID] {
			t.Fatalf("duplicate claim %s", c.ID)
		}
		ids[c.ID] = true
	}
}

func TestMustRunAndFigureNumbers(t *testing.T) {
	if got := FigureNumbers(); len(got) != 4 || got[0] != 2 || got[3] != 5 {
		t.Fatalf("FigureNumbers = %v", got)
	}
	r := MustRun("is", ScaleSmall, memsys.KindPRAM, memsys.Default(16))
	if r.ExecTime == 0 {
		t.Fatal("MustRun returned empty result")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun should panic on bad input")
		}
	}()
	MustRun("bogus", ScaleSmall, memsys.KindPRAM, memsys.Default(16))
}

// Finite caches exercise the eviction/writeback paths end to end: every
// application must still verify with a small 4-way cache.
func TestAppsCorrectWithFiniteCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("finite-cache matrix in -short mode")
	}
	p := memsys.Default(16)
	p.FiniteCache = true
	p.CacheLines = 32
	p.CacheAssoc = 4
	for _, app := range AppNames() {
		for _, kind := range []memsys.Kind{memsys.KindRCInv, memsys.KindRCUpd, memsys.KindRCAdapt} {
			if _, err := Run(app, ScaleSmall, kind, p); err != nil {
				t.Errorf("%s on %s with finite caches: %v", app, kind, err)
			}
		}
	}
}

// Dir-i directories must also preserve end-to-end correctness.
func TestAppsCorrectWithLimitedPointers(t *testing.T) {
	if testing.Short() {
		t.Skip("dir-pointer matrix in -short mode")
	}
	p := memsys.Default(16)
	p.DirPointers = 2
	for _, app := range AppNames() {
		for _, kind := range []memsys.Kind{memsys.KindRCInv, memsys.KindRCUpd} {
			if _, err := Run(app, ScaleSmall, kind, p); err != nil {
				t.Errorf("%s on %s with Dir-2: %v", app, kind, err)
			}
		}
	}
}

// Cross-system value determinism: the memory system changes *when* things
// happen, never *what* is computed — IS must produce identical ranks on
// every system (the other applications' verifiers already pin outputs to
// references; IS's output is additionally order-sensitive, so compare it
// bitwise across systems here).
func TestValuesIdenticalAcrossSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-system value check in -short mode")
	}
	var want []uint64
	for _, kind := range memsys.Kinds() {
		app, err := NewApp("is", ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(kind, memsys.Default(16))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := apps.Run(app, m); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		is := app.(*intsort.IS)
		got := is.RanksSnapshot(m)
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: rank[%d] = %d differs from reference %d", kind, i, got[i], want[i])
			}
		}
	}
}

func TestSummaryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix in -short mode")
	}
	tbl, err := SummaryMatrix(ScaleSmall, memsys.Default(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 || len(tbl.Rows[0]) != len(memsys.Kinds())+1 {
		t.Fatalf("matrix shape %dx%d", len(tbl.Rows), len(tbl.Rows[0]))
	}
}

// TestScalingExperimentsRegistry pins the S family's shape and its
// deliberate separation from the default regeneration index: folding S1..S4
// into Experiments() would change the metric totals the regeneration golden
// pins.
func TestScalingExperimentsRegistry(t *testing.T) {
	exps := ScalingExperiments(nil)
	if len(exps) != len(AppNames()) {
		t.Fatalf("S family has %d entries, want one per app (%d)", len(exps), len(AppNames()))
	}
	for i, e := range exps {
		want := fmt.Sprintf("S%d", i+1)
		if e.ID != want {
			t.Errorf("scaling experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete entry", e.ID)
		}
	}
	for _, e := range Experiments() {
		if e.ID[0] == 'S' {
			t.Errorf("S-family experiment %s leaked into the default regeneration index", e.ID)
		}
	}
	if _, err := FindExperimentScaled("S2", nil); err != nil {
		t.Error(err)
	}
	if _, err := FindExperimentScaled("E5", []int{2, 4}); err != nil {
		t.Error(err)
	}
	if _, err := FindExperiment("S1"); err != nil {
		t.Error(err)
	}
	if _, err := FindExperimentScaled("S9", nil); err == nil {
		t.Error("expected error for unknown scaling experiment")
	}
}

// TestOverheadScaling runs the table builder at tiny machine sizes and pins
// one row per size, each naming its processor count and a non-zero
// execution time.
func TestOverheadScaling(t *testing.T) {
	procs := []int{2, 4}
	base := memsys.Default(2)
	tab, err := OverheadScaling("is", ScaleSmall, memsys.KindRCInv, base, procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(procs) {
		t.Fatalf("table has %d rows, want %d", len(tab.Rows), len(procs))
	}
	for i, row := range tab.Rows {
		if row[0] != fmt.Sprint(procs[i]) || row[1] == "0" {
			t.Fatalf("row %d malformed: %v", i, row)
		}
	}
	if tab.Render() == "" || tab.Markdown() == "" {
		t.Fatal("table renders empty")
	}

	if _, err := OverheadScaling("is", ScaleSmall, memsys.KindRCInv, base, nil); err == nil {
		t.Error("expected error for empty machine-size list")
	}
}
