package zsim

import (
	"zsim/internal/apps"
	"zsim/internal/check"
	"zsim/internal/check/litmus"
	"zsim/internal/machine"
	"zsim/internal/memsys"
	"zsim/internal/metrics"
	"zsim/internal/psync"
	"zsim/internal/runner"
	"zsim/internal/shm"
	"zsim/internal/stats"
	"zsim/internal/trace"
	"zsim/internal/workload"
)

// Re-exported core types. Aliases keep the implementation in internal
// packages while giving external users one import.
type (
	// Params is the architectural parameter block (line sizes, buffer
	// depths, mesh link bandwidth, ...). See DefaultParams.
	Params = memsys.Params
	// Kind names a memory system.
	Kind = memsys.Kind
	// Time is virtual time in CPU cycles.
	Time = memsys.Time
	// Addr is a simulated shared-memory address.
	Addr = memsys.Addr
	// Machine is a simulated shared-memory multiprocessor.
	Machine = machine.Machine
	// Env is the per-processor trap interface applications program against.
	Env = machine.Env
	// Result is one run's statistics: execution time and the per-processor
	// overhead decomposition (read stall / write stall / buffer flush).
	Result = stats.Result
	// ProcStats is one processor's time decomposition.
	ProcStats = stats.Proc
	// Figure is a rendered per-application comparison (paper Figures 2-5).
	Figure = stats.Figure
	// Table is a rendered table (paper Table 1, sweeps).
	Table = stats.Table
	// App is a runnable benchmark application.
	App = apps.App
	// Scale selects paper-size or reduced problem instances.
	Scale = workload.Scale

	// Lock is a simulated FIFO queue lock.
	Lock = psync.Lock
	// Barrier is a simulated centralized barrier.
	Barrier = psync.Barrier
	// Flag is a simulated producer-consumer event.
	Flag = psync.Flag
	// SpinLock is a software test-and-test-and-set lock built from shared
	// accesses (its traffic is visible to the coherence protocol).
	SpinLock = psync.SpinLock
	// TreeBarrier is a combining-tree barrier (O(log P) critical path).
	TreeBarrier = psync.TreeBarrier
	// Counter is a simulated lock-protected shared counter.
	Counter = psync.Counter
	// Queue is a simulated lock-protected shared work queue.
	Queue = psync.Queue

	// Checker is the runtime memory-consistency conformance checker (see
	// Machine.EnableCheck).
	Checker = check.Checker
	// LitmusTest is one litmus program plus its expected-outcome tables.
	LitmusTest = litmus.Test
	// LitmusResult is one judged (litmus test, memory system) execution.
	LitmusResult = litmus.Result

	// MetricsSnapshot is a frozen view of a metrics registry: the
	// simulator's own overhead accounting (see Machine.Metrics and
	// GlobalMetrics). Counters and histograms of simulated events are
	// deterministic; runner.* metrics are host-side and vary.
	MetricsSnapshot = metrics.Snapshot
	// GaugeSnapshot is one gauge's frozen (value, max) pair.
	GaugeSnapshot = metrics.GaugeSnapshot
	// HistogramSnapshot is one histogram's frozen bucket counts.
	HistogramSnapshot = metrics.HistogramSnapshot

	// Trace is the machine's event recorder (see Machine.EnableTrace).
	Trace = trace.Recorder
	// TraceEvent is one recorded simulation event.
	TraceEvent = trace.Event
	// HotLine is a per-cache-line access/stall aggregate from a trace.
	HotLine = trace.HotLine

	// F64 is a shared float64 array.
	F64 = shm.F64
	// I64 is a shared int64 array.
	I64 = shm.I64
	// U64 is a shared uint64 array.
	U64 = shm.U64
)

// The memory systems of the paper's evaluation plus the two extra
// baselines of this reproduction.
const (
	// ZMachine is the paper's zero-overhead reference model.
	ZMachine = memsys.KindZMachine
	// PRAM is the unit-cost memory model.
	PRAM = memsys.KindPRAM
	// SCInv is sequentially consistent write-invalidate.
	SCInv = memsys.KindSCInv
	// RCInv is release consistency + Berkeley-style write-invalidate.
	RCInv = memsys.KindRCInv
	// RCUpd is release consistency + Firefly-style write-update.
	RCUpd = memsys.KindRCUpd
	// RCComp is RCUpd + competitive self-invalidation.
	RCComp = memsys.KindRCComp
	// RCAdapt is release consistency + the adaptive selective-write protocol.
	RCAdapt = memsys.KindRCAdapt
	// RCSync decouples data flow from synchronization (the paper's §6
	// proposal): releases never stall; synchronization grants carry the
	// producer's write-completion watermark.
	RCSync = memsys.KindRCSync

	// ScalePaper runs the paper's exact problem sizes.
	ScalePaper = workload.ScalePaper
	// ScaleSmall runs reduced instances with the same structure.
	ScaleSmall = workload.ScaleSmall
)

// Kinds returns every memory system kind.
func Kinds() []Kind { return memsys.Kinds() }

// FigureKinds returns the five systems of the paper's figures, in figure
// order.
func FigureKinds() []Kind { return memsys.FigureKinds() }

// Benchmarks returns the paper's four application names in figure order:
// cholesky, is, maxflow, nbody.
func Benchmarks() []string { return workload.AppNames() }

// DefaultParams returns the paper's machine configuration for p processors
// (32-byte lines, 4-byte z-machine lines, 1.6 cycles/byte mesh links,
// 4-entry store buffers, 1-line merge buffers, infinite caches).
func DefaultParams(p int) Params { return memsys.Default(p) }

// NewMachine builds a simulated multiprocessor with the given memory
// system.
func NewMachine(kind Kind, p Params) (*Machine, error) { return machine.New(kind, p) }

// NewLock allocates a simulated lock on m.
func NewLock(m *Machine) *Lock { return psync.NewLock(m) }

// NewBarrier allocates a simulated barrier over all of m's processors.
func NewBarrier(m *Machine) *Barrier { return psync.NewBarrier(m) }

// NewFlag allocates a simulated producer-consumer flag.
func NewFlag(m *Machine) *Flag { return psync.NewFlag(m) }

// NewSpinLock allocates a software test-and-set lock with the given probe
// back-off (0 picks a default).
func NewSpinLock(m *Machine, backoff Time) *SpinLock { return psync.NewSpinLock(m, backoff) }

// NewTreeBarrier allocates a combining-tree barrier over all processors.
func NewTreeBarrier(m *Machine) *TreeBarrier { return psync.NewTreeBarrier(m) }

// NewCounter allocates a simulated shared counter initialized to v.
func NewCounter(m *Machine, v int64) *Counter { return psync.NewCounter(m, v) }

// NewQueue allocates a simulated shared FIFO queue.
func NewQueue(m *Machine, capacity int) *Queue { return psync.NewQueue(m, capacity) }

// NewF64 allocates a shared float64 array on m.
func NewF64(m *Machine, n int) F64 { return shm.NewF64(m.Heap, n) }

// NewI64 allocates a shared int64 array on m.
func NewI64(m *Machine, n int) I64 { return shm.NewI64(m.Heap, n) }

// NewU64 allocates a shared uint64 array on m.
func NewU64(m *Machine, n int) U64 { return shm.NewU64(m.Heap, n) }

// ParseScale reads a problem scale by name, "small" or "paper", and
// rejects any other value.
func ParseScale(s string) (Scale, error) { return workload.ParseScale(s) }

// NewBenchmark constructs one of the paper's applications ("cholesky",
// "is", "maxflow", "nbody") at the given scale.
func NewBenchmark(name string, scale Scale) (App, error) { return workload.NewApp(name, scale) }

// RunApp executes a custom application on a fresh machine (Setup, the
// parallel Body, Verify) and returns its statistics.
func RunApp(app App, kind Kind, p Params) (*Result, error) {
	m, err := machine.New(kind, p)
	if err != nil {
		return nil, err
	}
	return apps.Run(app, m)
}

// RunBenchmark executes one of the paper's applications.
func RunBenchmark(name string, scale Scale, kind Kind, p Params) (*Result, error) {
	return workload.Run(name, scale, kind, p)
}

// PaperFigure regenerates Figure n of the paper (2: Cholesky, 3: IS,
// 4: Maxflow, 5: Barnes-Hut).
func PaperFigure(n int, scale Scale, p Params) (*Figure, error) {
	return workload.Figure(n, scale, p)
}

// PaperFigureNumbers returns the paper's figure numbers: 2, 3, 4, 5.
func PaperFigureNumbers() []int { return workload.FigureNumbers() }

// PaperTable1 regenerates Table 1 (inherent communication and observed
// costs on the z-machine).
func PaperTable1(scale Scale, p Params) (*Table, []*Result, error) {
	return workload.Table1(scale, p)
}

// ZvsPRAM regenerates the §5 z-machine-vs-PRAM comparison.
func ZvsPRAM(scale Scale, p Params) (*Table, error) { return workload.ZvsPRAM(scale, p) }

// Ablation sweeps (the paper's §6 architectural implications and §7 open
// issues). See the corresponding workload functions for details.
var (
	StoreBufferSweep = workload.StoreBufferSweep
	NetworkSweep     = workload.NetworkSweep
	ThresholdSweep   = workload.ThresholdSweep
	FiniteCacheSweep = workload.FiniteCacheSweep
	PrefetchSweep    = workload.PrefetchSweep
	SCvsRC           = workload.SCvsRC
)

// ParamsFromJSON decodes a parameter block from a configuration file
// (missing fields keep the paper defaults).
func ParamsFromJSON(data []byte) (Params, error) { return memsys.ParamsFromJSON(data) }

// DefaultMTParams returns the paper's configuration with `streams`
// execution streams multiplexed `threads` per node — the §7 multithreading
// open issue as a runnable extension.
func DefaultMTParams(streams, threads int) Params { return memsys.DefaultMT(streams, threads) }

// MultithreadSweep is the multithreading ablation (extension E13).
var MultithreadSweep = workload.MultithreadSweep

// ScalabilitySweep runs an application across machine sizes on one memory
// system (speedup view, after the authors' scalability-study framework).
var ScalabilitySweep = workload.ScalabilitySweep

// TopologySweep runs an application across interconnect topologies
// (mesh, torus, hypercube, xbar, bus).
var TopologySweep = workload.TopologySweep

// RCSyncComparison regenerates experiment E15: RCinv vs the §6 decoupling
// proposal (RCsync).
var RCSyncComparison = workload.RCSyncComparison

// OrderingSweep contrasts Cholesky elimination orderings (natural band vs
// nested dissection).
var OrderingSweep = workload.OrderingSweep

// DirPointerSweep varies the directory's sharer-pointer budget (Dir-i vs
// the paper's full-map directories).
var DirPointerSweep = workload.DirPointerSweep

// LineSizeSweep varies the real systems' coherence unit (false sharing vs
// spatial locality).
var LineSizeSweep = workload.LineSizeSweep

// OracleSweep contrasts the z-machine's broadcast-counter simulation with
// its perfect per-consumer oracle definition.
var OracleSweep = workload.OracleSweep

// SummaryMatrix tabulates overhead %% for every (application, system) pair.
var SummaryMatrix = workload.SummaryMatrix

// Experiment is one entry of the regeneration index (DESIGN.md E1..E20).
type Experiment = workload.Experiment

// Experiments returns the full regeneration index in DESIGN.md order.
func Experiments() []Experiment { return workload.Experiments() }

// EvaluateClaims machine-checks the paper's qualitative claims and returns
// the verdict table plus an overall pass flag.
func EvaluateClaims(scale Scale, p Params) (*Table, bool, error) {
	return workload.EvaluateClaims(scale, p)
}

// FindExperiment looks an experiment up by ID ("E1".."E20", "S1".."S4").
func FindExperiment(id string) (Experiment, error) { return workload.FindExperiment(id) }

// FindExperimentScaled looks an experiment up by ID across both indexes,
// building the scalability family over the given machine sizes (nil selects
// DefaultScalingProcs).
func FindExperimentScaled(id string, procs []int) (Experiment, error) {
	return workload.FindExperimentScaled(id, procs)
}

// OverheadScaling runs one application on one memory system across machine
// sizes and decomposes execution time into the paper's overhead classes.
var OverheadScaling = workload.OverheadScaling

// ScalingExperiments returns the scalability family S1..S4 (overhead
// classes vs P for each paper application on RCinv) over the given machine
// sizes; nil selects DefaultScalingProcs. The family is indexed separately
// from Experiments() because its many-core cells would dominate the default
// regeneration's run time and metric totals.
func ScalingExperiments(procs []int) []Experiment { return workload.ScalingExperiments(procs) }

// DefaultScalingProcs returns the scalability family's default machine
// sizes: 64, 256, 1024.
func DefaultScalingProcs() []int { return workload.DefaultScalingProcs() }

// LitmusTests returns the hand-written litmus programs in suite order.
func LitmusTests() []LitmusTest { return litmus.Tests() }

// RandomLitmus generates a seeded random litmus program (deterministic per
// seed; the conformance checker is its oracle).
func RandomLitmus(seed int64) LitmusTest { return litmus.RandomTest(seed) }

// RunLitmus executes one litmus test on one memory system with the
// conformance checker attached.
func RunLitmus(t LitmusTest, kind Kind, p Params) (LitmusResult, error) {
	return litmus.RunTest(t, kind, p)
}

// RunLitmusSuite runs every litmus test on every given memory system.
func RunLitmusSuite(kinds []Kind, p Params) ([]LitmusResult, error) {
	return litmus.RunSuite(kinds, p)
}

// LitmusReport renders litmus results as a test × system outcome table,
// marking model violations with '!' and checker violations with 'X'.
func LitmusReport(rs []LitmusResult) string { return litmus.Report(rs) }

// LitmusOk reports whether every litmus result is conformant.
func LitmusOk(rs []LitmusResult) bool { return litmus.Ok(rs) }

// ConformanceSweep runs every application on every memory system with the
// conformance checker attached and tabulates the verdicts.
var ConformanceSweep = workload.ConformanceSweep

// RunAppOn executes a custom application on a caller-constructed machine
// (use this instead of RunApp when you need machine-level features such as
// event tracing via Machine.EnableTrace).
func RunAppOn(app App, m *Machine) (*Result, error) {
	return apps.Run(app, m)
}

// SetParallelism bounds how many simulations the evaluation harness runs
// concurrently (figures, tables, sweeps, the conformance sweep, and the
// litmus suite all fan their independent cells onto a shared worker-pool
// policy). It returns the previous bound; n < 1 selects GOMAXPROCS, 1 is
// fully serial. Every cell builds its own Machine and results are collected
// by cell index, so all rendered output is byte-identical at any setting.
func SetParallelism(n int) int { return runner.SetParallelism(n) }

// Parallelism returns the harness's current concurrency bound.
func Parallelism() int { return runner.Parallelism() }

// RunGrid executes n independent simulation cells on the harness's worker
// pool and returns the results indexed by cell. The error (and any panic)
// surfaced is the smallest-index one, and every cell runs even if another
// fails, so the outcome is independent of the parallelism setting. Cells
// must build their own machines.
func RunGrid(n int, cell func(i int) (*Result, error)) ([]*Result, error) {
	return runner.Grid(n, cell)
}

// EnableMetrics turns the simulator's own overhead accounting on or off
// and returns the previous state. Enable it before building machines.
// Metrics never touch virtual time: simulated results are byte-identical
// with metrics on or off and at any -parallel setting; only host-side
// metrics (runner.cell_wall_ms, runner.workers_busy) vary between hosts.
func EnableMetrics(on bool) bool { return metrics.Enable(on) }

// MetricsEnabled reports whether metric recording is on.
func MetricsEnabled() bool { return metrics.Enabled() }

// GlobalMetrics returns a snapshot of the process-global metrics registry:
// the aggregate over every machine run and grid executed since the last
// ResetGlobalMetrics. `paperbench -metrics` prints it; TestRegenerationGolden
// pins all of it but the host-side runner.* metrics.
func GlobalMetrics() MetricsSnapshot { return metrics.Default.Snapshot() }

// ResetGlobalMetrics clears the process-global metrics registry.
func ResetGlobalMetrics() { metrics.Default.Reset() }
