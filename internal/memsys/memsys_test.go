package memsys

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultValid(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 12, 16, 32, 64, 256, 1024} {
		if err := Default(p).Validate(); err != nil {
			t.Errorf("Default(%d) invalid: %v", p, err)
		}
	}
}

func TestDefaultMatchesPaper(t *testing.T) {
	p := Default(16)
	if p.LineSize != 32 {
		t.Errorf("LineSize = %d, want 32", p.LineSize)
	}
	if p.ZLineSize != 4 {
		t.Errorf("ZLineSize = %d, want 4", p.ZLineSize)
	}
	if p.LinkCyclesPerByte != 1.6 {
		t.Errorf("LinkCyclesPerByte = %g, want 1.6", p.LinkCyclesPerByte)
	}
	if p.StoreBufEntries != 4 {
		t.Errorf("StoreBufEntries = %d, want 4", p.StoreBufEntries)
	}
	if p.MergeBufLines != 1 {
		t.Errorf("MergeBufLines = %d, want 1", p.MergeBufLines)
	}
	if p.MeshW != 4 || p.MeshH != 4 {
		t.Errorf("mesh = %dx%d, want 4x4", p.MeshW, p.MeshH)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Procs = 0 },
		func(p *Params) { p.Procs = MaxProcs + 1; p.MeshW = 25; p.MeshH = 41 },
		func(p *Params) { p.MeshW = 3 },
		func(p *Params) { p.LineSize = 24 },
		func(p *Params) { p.ZLineSize = 0 },
		func(p *Params) { p.LinkCyclesPerByte = 0 },
		func(p *Params) { p.StoreBufEntries = 0 },
		func(p *Params) { p.MergeBufLines = 0 },
		func(p *Params) { p.CompThreshold = 0 },
		func(p *Params) { p.FiniteCache = true },
		func(p *Params) { p.FiniteCache = true; p.CacheLines = 10; p.CacheAssoc = 4 },
	}
	for i, mutate := range bad {
		p := Default(16)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestValidateRejectsProcsOverCap(t *testing.T) {
	// The directory's presence sets are fixed MaxProcs/64-word arrays and
	// the stock topologies are validated up to MaxProcs nodes; one more
	// processor would index past the presence words. Validate must refuse
	// instead of corrupting sharer tracking, and the error must name the
	// configured topology's capacity, not a stale uint64 rationale.
	p := Default(MaxProcs)
	if err := p.Validate(); err != nil {
		t.Fatalf("Default(%d) must validate: %v", MaxProcs, err)
	}
	p.Procs = MaxProcs + 1
	p.MeshW, p.MeshH = 25, 41 // 25*41 = 1025: the mesh covers, the cap still rejects
	err := p.Validate()
	if err == nil {
		t.Fatalf("Procs = %d must be rejected", MaxProcs+1)
	}
	for _, want := range []string{"1025", "1024-processor capacity", `"mesh" topology`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
	// The named capacity follows the configured topology.
	p.Topology = "torus"
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), `"torus" topology`) {
		t.Errorf("error %v should name the configured torus topology", err)
	}
}

func TestHomeInterleaving(t *testing.T) {
	p := Default(16)
	// Consecutive 32-byte lines round-robin across the 16 nodes.
	for i := 0; i < 64; i++ {
		addr := Addr(i * 32)
		if got, want := p.Home(addr, 32), i%16; got != want {
			t.Fatalf("Home(%#x) = %d, want %d", addr, got, want)
		}
	}
	// Same line, different offsets: same home.
	if p.Home(0, 32) != p.Home(31, 32) {
		t.Fatal("offsets within a line must share a home")
	}
}

func TestHomeInRangeProperty(t *testing.T) {
	p := Default(12)
	f := func(a uint64) bool {
		h := p.Home(Addr(a), p.LineSize)
		return h >= 0 && h < p.Procs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLine(t *testing.T) {
	if Line(0, 32) != 0 || Line(31, 32) != 0 || Line(32, 32) != 1 {
		t.Fatal("Line mapping wrong")
	}
}

func TestCountersPerProc(t *testing.T) {
	c := NewCounters(4)
	c.CountRead(1)
	c.CountRead(1)
	c.CountWrite(3)
	// CountRead/CountWrite touch only the per-processor cells; the
	// aggregates are derived by Fold.
	if c.Reads != 0 || c.Writes != 0 {
		t.Fatalf("aggregates written eagerly: reads=%d writes=%d", c.Reads, c.Writes)
	}
	c.Fold()
	if c.Reads != 2 || c.Writes != 1 {
		t.Fatalf("reads=%d writes=%d", c.Reads, c.Writes)
	}
	c.Fold() // idempotent
	if c.Reads != 2 || c.Writes != 1 {
		t.Fatalf("Fold not idempotent: reads=%d writes=%d", c.Reads, c.Writes)
	}
	if c.PerProcReads[1] != 2 || c.PerProcWrites[3] != 1 {
		t.Fatalf("per-proc counters wrong: %+v", c)
	}
	if c.String() == "" {
		t.Fatal("String should describe counters")
	}
}

func TestKindsContainFigureSystems(t *testing.T) {
	all := map[Kind]bool{}
	for _, k := range Kinds() {
		all[k] = true
	}
	for _, k := range FigureKinds() {
		if !all[k] {
			t.Errorf("figure kind %s missing from Kinds()", k)
		}
	}
	if FigureKinds()[0] != KindZMachine {
		t.Error("figures lead with the z-machine")
	}
}

func TestMeshShapeSquareish(t *testing.T) {
	cases := map[int][2]int{16: {4, 4}, 8: {4, 2}, 12: {4, 3}, 2: {2, 1}, 1: {1, 1}, 9: {3, 3}}
	for p, want := range cases {
		w, h := meshShape(p)
		if w != want[0] || h != want[1] {
			t.Errorf("meshShape(%d) = %dx%d, want %dx%d", p, w, h, want[0], want[1])
		}
	}
}

func TestDefaultMT(t *testing.T) {
	p := DefaultMT(16, 4)
	if p.Procs != 16 || p.HWThreads != 4 {
		t.Fatalf("config = %+v", p)
	}
	if p.Nodes() != 4 {
		t.Fatalf("Nodes = %d, want 4", p.Nodes())
	}
	if p.MeshW*p.MeshH != 4 {
		t.Fatalf("mesh %dx%d should cover 4 nodes", p.MeshW, p.MeshH)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeMapping(t *testing.T) {
	p := DefaultMT(8, 2)
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for stream, node := range want {
		if p.Node(stream) != node {
			t.Fatalf("Node(%d) = %d, want %d", stream, p.Node(stream), node)
		}
	}
}

func TestDefaultMTPanicsOnBadSplit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultMT(10, 4)
}

func TestValidateHWThreads(t *testing.T) {
	p := Default(16)
	p.HWThreads = 3 // does not divide 16
	if err := p.Validate(); err == nil {
		t.Fatal("expected error")
	}
	p = Default(16)
	p.HWThreads = 4 // mesh still 4x4 but only 4 nodes
	if err := p.Validate(); err == nil {
		t.Fatal("expected mesh/nodes mismatch error")
	}
}

func TestHomeRangesOverNodes(t *testing.T) {
	p := DefaultMT(16, 4)
	for a := Addr(0); a < 4096; a += 32 {
		if h := p.Home(a, 32); h < 0 || h >= 4 {
			t.Fatalf("Home(%d) = %d outside the 4 nodes", a, h)
		}
	}
}

func TestParamsJSONRoundtrip(t *testing.T) {
	p := Default(16)
	p.Topology = "torus"
	p.PrefetchDegree = 2
	data, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParamsFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("roundtrip changed params:\n got %+v\nwant %+v", got, p)
	}
}

func TestParamsFromJSONPartial(t *testing.T) {
	// A file that only changes a few fields keeps the paper defaults and
	// gets a consistent mesh recomputed.
	got, err := ParamsFromJSON([]byte(`{"Procs": 32, "HWThreads": 2, "StoreBufEntries": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Procs != 32 || got.HWThreads != 2 || got.StoreBufEntries != 8 {
		t.Fatalf("overrides lost: %+v", got)
	}
	if got.Nodes() != 16 || got.MeshW*got.MeshH != 16 {
		t.Fatalf("mesh not recomputed: %+v", got)
	}
	if got.LineSize != 32 {
		t.Fatalf("defaults lost: %+v", got)
	}
}

func TestParamsFromJSONRejectsBad(t *testing.T) {
	if _, err := ParamsFromJSON([]byte(`{`)); err == nil {
		t.Fatal("expected syntax error")
	}
	if _, err := ParamsFromJSON([]byte(`{"LineSize": 24}`)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestTransferCyclesMinimumOne(t *testing.T) {
	p := Default(16)
	p.LinkCyclesPerByte = 0.0001
	if got := p.TransferCycles(1); got != 1 {
		t.Fatalf("TransferCycles floor = %d, want 1", got)
	}
	p.LinkCyclesPerByte = 2
	if got := p.TransferCycles(3); got != 6 {
		t.Fatalf("TransferCycles(3) = %d, want 6", got)
	}
	if got := p.TransferCycles(0); got != 1 {
		t.Fatalf("zero-byte transfer = %d, want 1", got)
	}
}
