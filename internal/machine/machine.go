// Package machine binds the simulation kernel, the interconnect, a memory
// system, and the shared address space into a runnable simulated
// multiprocessor. Applications are ordinary Go functions that receive a
// per-processor Env and perform every shared access and synchronization
// through it — the execution-driven trap interface of the paper's SPASM
// framework.
package machine

import (
	"math"

	"zsim/internal/check"
	"zsim/internal/memsys"
	"zsim/internal/mesh"
	"zsim/internal/metrics"
	"zsim/internal/proto"
	"zsim/internal/shm"
	"zsim/internal/sim"
	"zsim/internal/stats"
	"zsim/internal/trace"
)

// Time aliases virtual time.
type Time = memsys.Time

// Machine is a simulated shared-memory multiprocessor.
type Machine struct {
	Params memsys.Params
	Eng    *sim.Engine
	Net    *mesh.Net
	Mem    memsys.MemSystem
	Heap   *shm.Heap

	// values backs the simulated shared memory: a paged flat table of
	// 8-byte words indexed by memsys.WordIndex(addr). The heap is a bump
	// allocator, so word indices are dense and every load/store on the
	// per-access hot path is two array indexings — no hashing, no
	// steady-state allocation.
	values memsys.Paged[uint64]
	procs  []stats.Proc
	envs   []*Env
	// met is the machine's own metrics registry; every component is wired
	// to it at construction, the run's totals are harvested into it when
	// Run finishes, and it is then merged into metrics.Default. Recording
	// is gated globally by metrics.Enable and never touches virtual time.
	met *metrics.Registry
	// rec, when non-nil, records every globally visible event.
	rec *trace.Recorder
	// chk, when non-nil, validates memory-model invariants on every event.
	chk *check.Checker
	// syncIDs numbers the synchronization objects (locks, barriers, flags)
	// built on this machine, for event attribution.
	syncIDs int32
	// coreFree[node] is when the node's core finishes its current
	// computation; with HWThreads > 1 the threads of a node contend for it
	// (switch-on-miss multithreading: memory stalls do not hold the core).
	coreFree []Time
	ran      bool
}

// New builds a machine with the given memory system and parameters.
func New(kind memsys.Kind, p memsys.Params) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	net := mesh.New(p)
	mem, err := proto.New(kind, p, net)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Params:   p,
		Eng:      sim.NewEngine(p.Procs),
		Net:      net,
		Mem:      mem,
		Heap:     shm.NewHeap(p.LineSize),
		procs:    make([]stats.Proc, p.Procs),
		coreFree: make([]Time, p.Nodes()),
		met:      metrics.NewRegistry(),
	}
	m.Eng.InstrumentMetrics(m.met)
	m.Net.InstrumentMetrics(m.met)
	if ins, ok := mem.(metrics.Instrumentable); ok {
		ins.InstrumentMetrics(m.met)
	}
	for i := 0; i < p.Procs; i++ {
		m.envs = append(m.envs, &Env{m: m, p: m.Eng.Proc(i), st: &m.procs[i]})
	}
	return m, nil
}

// MustNew is New panicking on error.
func MustNew(kind memsys.Kind, p memsys.Params) *Machine {
	m, err := New(kind, p)
	if err != nil {
		panic(err)
	}
	return m
}

// NumProcs returns the processor count.
func (m *Machine) NumProcs() int { return m.Params.Procs }

// Alloc reserves size bytes of simulated shared memory.
func (m *Machine) Alloc(size int) memsys.Addr { return m.Heap.Alloc(size) }

// EnableTrace attaches an event recorder keeping the last cap events; it
// returns the recorder for inspection after the run.
func (m *Machine) EnableTrace(cap int) *trace.Recorder {
	m.rec = trace.New(cap)
	return m.rec
}

// Trace returns the attached recorder (nil unless EnableTrace was called).
func (m *Machine) Trace() *trace.Recorder { return m.rec }

// EnableCheck attaches a runtime memory-consistency conformance checker that
// validates every globally visible event against the memory model (see
// internal/check); it returns the checker for interrogation after the run.
// Call it before initializing shared memory so setup Pokes reach the
// checker's shadow.
func (m *Machine) EnableCheck() *check.Checker {
	m.chk = check.New(m.Mem.Name(), m.Params)
	if a, ok := m.Mem.(check.Auditable); ok {
		m.chk.SetAuditor(a)
	}
	return m.chk
}

// Checker returns the attached conformance checker (nil unless EnableCheck
// was called).
func (m *Machine) Checker() *check.Checker { return m.chk }

// NewSyncObjID issues the next synchronization-object id; the psync
// primitives call it at construction so trace and checker can attribute
// lock/barrier/flag events.
func (m *Machine) NewSyncObjID() int32 {
	m.syncIDs++
	return m.syncIDs
}

// PeekU64 reads a shared word without simulating an access (setup,
// verification, and debugging only).
func (m *Machine) PeekU64(addr memsys.Addr) uint64 {
	return m.values.Load(memsys.WordIndex(addr))
}

// PokeU64 writes a shared word without simulating an access. Use only for
// pre-run initialization (the initial data placement is free, as if loaded
// before timing starts) and never from application bodies.
func (m *Machine) PokeU64(addr memsys.Addr, v uint64) {
	*m.values.At(memsys.WordIndex(addr)) = v
	m.chk.Poked(addr, v)
}

// PeekF64 reads a shared float64 without simulation.
func (m *Machine) PeekF64(addr memsys.Addr) float64 {
	return math.Float64frombits(m.PeekU64(addr))
}

// PokeF64 writes a shared float64 without simulation.
func (m *Machine) PokeF64(addr memsys.Addr, v float64) {
	m.PokeU64(addr, math.Float64bits(v))
}

// Run executes body on every processor and returns the run's result. A
// machine runs exactly once; build a fresh machine per experiment.
func (m *Machine) Run(app string, body func(e *Env)) *stats.Result {
	if m.ran {
		panic("machine: Run called twice; build a fresh Machine per run")
	}
	m.ran = true
	exec := m.Eng.Run(func(p *sim.Proc) {
		body(m.envs[p.ID()])
	})
	m.chk.Finish()
	if metrics.Enabled() {
		m.publishMetrics(exec)
	}
	res := &stats.Result{
		App:      app,
		System:   m.Mem.Name(),
		ExecTime: exec,
		Procs:    append([]stats.Proc(nil), m.procs...),
		Counters: *m.Mem.Counters(),
	}
	return res
}

// Metrics returns a frozen snapshot of the machine's metrics registry.
// During a run it carries the live per-event metrics (run-queue depth,
// store-buffer occupancy, mesh hops); after Run it also carries the
// harvested totals (sim.*, proto.*, mesh.*, directory.*, cache.*,
// machine.*). Empty unless metrics.Enable was on when the machine was
// built and ran.
func (m *Machine) Metrics() metrics.Snapshot { return m.met.Snapshot() }

// publishMetrics harvests every component's run totals into the machine's
// registry and folds the registry into the process-global default, from
// which paperbench's -bench-json record takes its metrics section. Only
// host-visible accounting happens here: virtual time is never read.
func (m *Machine) publishMetrics(exec Time) {
	r := m.met
	m.Eng.PublishMetrics(r)
	m.Net.PublishMetrics(r)
	if pub, ok := m.Mem.(metrics.Publisher); ok {
		pub.PublishMetrics(r)
	}
	c := m.Mem.Counters()
	r.Counter("proto.reads").Add(c.Reads)
	r.Counter("proto.writes").Add(c.Writes)
	r.Counter("proto.read_misses").Add(c.ReadMisses)
	r.Counter("proto.write_misses").Add(c.WriteMisses)
	r.Counter("proto.cold_misses").Add(c.ColdMisses)
	r.Counter("proto.msgs").Add(c.Messages)
	r.Counter("proto.data_msgs").Add(c.DataMsgs)
	r.Counter("proto.bytes").Add(c.Bytes)
	r.Counter("proto.invalidations").Add(c.Invalidations)
	r.Counter("proto.updates").Add(c.Updates)
	r.Counter("proto.useless_updates").Add(c.UselessUpdates)
	r.Counter("proto.self_invalidations").Add(c.SelfInvalidations)
	r.Counter("proto.prefetches").Add(c.Prefetches)
	r.Counter("proto.pointer_evictions").Add(c.PointerEvictions)
	r.Counter("machine.runs").Inc()
	r.Counter("machine.exec_cycles").Add(uint64(exec))
	metrics.Default.Merge(r)
}

// Env is the per-processor view of the machine: the trap interface through
// which application code computes, accesses shared memory, and (via
// internal/psync) synchronizes.
type Env struct {
	m  *Machine
	p  *sim.Proc
	st *stats.Proc
}

// ID returns the processor (execution stream) number.
func (e *Env) ID() int { return e.p.ID() }

// NodeID returns the NUMA node this stream's hardware lives on (equal to
// ID when HWThreads is 1).
func (e *Env) NodeID() int { return e.m.Params.Node(e.p.ID()) }

// NumProcs returns the machine's processor count.
func (e *Env) NumProcs() int { return e.m.Params.Procs }

// Machine returns the owning machine.
func (e *Env) Machine() *Machine { return e.m }

// Clock returns the processor's virtual time.
func (e *Env) Clock() Time { return e.p.Clock() }

// Compute charges c cycles of local computation (the application's cost
// model; this substitutes for SPASM's instruction cycle counting). With
// hardware multithreading the node's core is a shared resource: the thread
// first waits for the core (accounted as CoreWait), then occupies it for c
// cycles; memory stalls never hold the core, which is what lets a sibling
// thread's computation hide them.
func (e *Env) Compute(c Time) {
	if e.m.Params.HWThreads > 1 {
		// The core is shared by the node's threads: reserve it in order.
		e.p.Sync()
		node := e.m.Params.Node(e.ID())
		if f := e.m.coreFree[node]; f > e.p.Clock() {
			e.st.CoreWait += f - e.p.Clock()
			e.p.AdvanceTo(f)
		}
		e.m.coreFree[node] = e.p.Clock() + c
	}
	e.p.Advance(c)
	e.st.Compute += c
}

// LoadU64 performs a simulated shared read of the 8-byte word at addr.
func (e *Env) LoadU64(addr memsys.Addr) uint64 {
	e.p.Sync()
	at := e.p.Clock()
	stall := e.m.Mem.Read(e.ID(), addr, shm.WordSize, at)
	e.st.ReadStall += stall
	e.p.Advance(stall)
	v := e.m.values.Load(memsys.WordIndex(addr))
	e.event(trace.Event{At: at, Proc: e.ID(), Kind: trace.Read, Addr: addr, Stall: stall, Value: v})
	return v
}

// StoreU64 performs a simulated shared write of the 8-byte word at addr.
func (e *Env) StoreU64(addr memsys.Addr, v uint64) {
	e.p.Sync()
	at := e.p.Clock()
	stall := e.m.Mem.Write(e.ID(), addr, shm.WordSize, at)
	e.st.WriteStall += stall
	e.p.Advance(stall)
	*e.m.values.At(memsys.WordIndex(addr)) = v
	e.event(trace.Event{At: at, Proc: e.ID(), Kind: trace.Write, Addr: addr, Stall: stall, Value: v})
}

// AtomicSwapU64 models an atomic exchange (test-and-set class hardware
// primitive): a read and a write of the word at addr performed indivisibly
// at the same virtual instant. The read's wait is accounted as read stall
// and the write's as write stall, like the two halves of a locked bus
// transaction.
func (e *Env) AtomicSwapU64(addr memsys.Addr, v uint64) uint64 {
	e.p.Sync()
	at := e.p.Clock()
	rstall := e.m.Mem.Read(e.ID(), addr, shm.WordSize, at)
	e.st.ReadStall += rstall
	e.p.Advance(rstall)
	wstall := e.m.Mem.Write(e.ID(), addr, shm.WordSize, e.p.Clock())
	e.st.WriteStall += wstall
	e.p.Advance(wstall)
	w := e.m.values.At(memsys.WordIndex(addr))
	old := *w
	*w = v
	e.event(trace.Event{At: at, Proc: e.ID(), Kind: trace.Read, Addr: addr, Stall: rstall, Value: old})
	e.event(trace.Event{At: at, Proc: e.ID(), Kind: trace.Write, Addr: addr, Stall: wstall, Value: v})
	return old
}

// event offers an event to the trace recorder and the conformance checker
// (both nil-safe).
func (e *Env) event(ev trace.Event) {
	e.m.rec.Record(ev)
	e.m.chk.Observe(ev)
}

// LoadF64 reads a shared float64.
func (e *Env) LoadF64(addr memsys.Addr) float64 {
	return math.Float64frombits(e.LoadU64(addr))
}

// StoreF64 writes a shared float64.
func (e *Env) StoreF64(addr memsys.Addr, v float64) {
	e.StoreU64(addr, math.Float64bits(v))
}

// The methods below are the synchronization-building toolkit used by
// internal/psync; applications normally use psync's Lock/Barrier/Flag
// rather than calling these directly.

// SyncPoint acquires the global-time token: after it returns, the processor
// holds the smallest virtual clock and may mutate global simulation state.
func (e *Env) SyncPoint() { e.p.Sync() }

// ReleasePoint applies release semantics: the memory system drains its
// write buffers, and the wait is accounted as buffer-flush overhead.
func (e *Env) ReleasePoint() {
	e.p.Sync()
	at := e.p.Clock()
	stall := e.m.Mem.Release(e.ID(), at)
	e.st.BufferFlush += stall
	e.p.Advance(stall)
	e.event(trace.Event{At: at, Proc: e.ID(), Kind: trace.Release, Stall: stall,
		Value: uint64(e.ReleaseWatermark())})
}

// ReleaseWatermark returns the time by which this processor's issued
// writes are globally performed. For memory systems that decouple data
// flow from synchronization (memsys.TokenSystem, the paper's §6 proposal)
// the synchronization primitives delay the *consumer's* grant to this
// watermark instead of stalling the producer at the release; for every
// other system it is simply the current clock.
func (e *Env) ReleaseWatermark() Time {
	if ts, ok := e.m.Mem.(memsys.TokenSystem); ok {
		return ts.ReleaseWatermark(e.ID(), e.p.Clock())
	}
	return e.p.Clock()
}

// AcquirePoint applies acquire semantics at a synchronization grant.
func (e *Env) AcquirePoint() {
	at := e.p.Clock()
	stall := e.m.Mem.Acquire(e.ID(), at)
	e.st.ReadStall += stall
	e.p.Advance(stall)
	e.event(trace.Event{At: at, Proc: e.ID(), Kind: trace.Acquire, Stall: stall})
}

// RecordSync records a synchronization-object event (lock grant/release,
// barrier arrival/departure, flag set/wait) for tracing and conformance
// checking. The psync primitives call it; obj ids come from
// Machine.NewSyncObjID and value is kind-dependent (see trace.Event).
func (e *Env) RecordSync(kind trace.Kind, obj int32, value uint64) {
	e.event(trace.Event{At: e.p.Clock(), Proc: e.ID(), Kind: kind, Obj: obj, Value: value})
}

// AdvanceTo moves the clock forward to t (no-op if already past).
func (e *Env) AdvanceTo(t Time) { e.p.AdvanceTo(t) }

// AddSyncWait accounts d cycles of process-coordination wait (inherent cost,
// not an overhead in the paper's taxonomy).
func (e *Env) AddSyncWait(d Time) { e.st.SyncWait += d }

// Block parks the processor until another processor calls Unblock on it.
func (e *Env) Block(reason string) { e.p.Block(reason) }

// Unblock releases a parked processor with its clock advanced to t.
func (e *Env) Unblock(t Time) { e.p.Unblock(t) }

// SendCtrl models a synchronization control message from this processor's
// node to node dst, returning its arrival time. Traffic shares the mesh
// with the memory system (contention is visible to both).
func (e *Env) SendCtrl(dst int, t Time) Time {
	return e.m.Net.Send(e.NodeID(), dst, e.m.Params.CtrlBytes, t)
}

// SendCtrlFrom models a control message between arbitrary nodes (used for
// home-mediated synchronization).
func (e *Env) SendCtrlFrom(src, dst int, t Time) Time {
	return e.m.Net.Send(src, dst, e.m.Params.CtrlBytes, t)
}

// Params returns the machine's parameters.
func (e *Env) Params() memsys.Params { return e.m.Params }
