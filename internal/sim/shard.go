// Sharded execution mode: the conservative parallel-discrete-event variant
// of the cooperative engine (the ROADMAP's "intra-run PDES" item, after
// PARSIR's conservative multicore design).
//
// The processor set is partitioned across S shards (the machine layer
// assigns processors by home node, so a shard is a contiguous block of mesh
// nodes). Each shard owns a private run queue. Execution alternates between
// a serial phase and concurrent window phases:
//
//   - Serial phase (the window boundary): the coordinator pops the single
//     globally minimal (clock, id) processor — regardless of its pending
//     operation's scope — and runs it alone, exactly like the serial
//     engine. With zero lookahead no window ever opens and the sharded
//     engine executes exactly the serial schedule.
//
//   - Window phase: let B be the minimal (clock, id) head across ALL
//     shards. Two kinds of window run concurrently, one goroutine each:
//
//     The minimal shard runs a STREAM when its head is streamable (a
//     deferred-probe trap or a declared local-scope operation): it
//     dispatches its processors in per-shard (clock, id) order while they
//     stay streamable and order strictly below the cap — the minimal head
//     of the OTHER shards at survey time. Everything the stream dispatches
//     is the literal prefix of the serial schedule (nothing else can order
//     below the cap), so streamed operations may touch global simulation
//     state: a machine memory trap's protocol effects — directory
//     transitions, remote-cache invalidations, word writes — apply against
//     exactly the state a serial run would show, and its scope probe
//     classifies against that same state. The only operations a stream
//     must not dispatch are plain global-scope ones (psync traps), because
//     they can Unblock — wake-ups mutate other shards' run queues and are
//     only legal from the serialized boundary. Declared local-scope
//     operations additionally stream up to the horizon B + lookahead even
//     past the cap (the same license local-only windows have).
//
//     Every OTHER shard whose head is a declared local-scope operation
//     strictly below the horizon B + lookahead runs a LOCAL-ONLY window:
//     per-shard (clock, id) order, admitting only local-scope operations
//     (SyncLocal — machine Compute slot reservations, engine-level
//     shard-private steps), which by contract touch only shard-private
//     state and therefore commute with the stream and with each other.
//     Deferred-probe heads are never dispatched here and their probes are
//     never evaluated here: the probe reads protocol state the stream may
//     be mutating concurrently, and the trap's own effects are
//     instantaneous in simulated time, so dispatching it out of
//     serial-prefix order could read or clobber state a lower-keyed
//     streamed operation has not yet produced. They park until the
//     boundary (or until their own shard holds the stream).
//
// The horizon B + lookahead (minimum cross-shard mesh latency, see
// Engine.SetLookahead and mesh.MinCrossShardLatency) is exclusive: B
// lower-bounds the clock of the next global operation ANY shard can issue —
// a local head bounds where its shard can next go global just as a global
// head does, since per-shard dispatch clocks are nondecreasing — and no
// cross-shard effect of a global operation at clock >= B can land before
// B + lookahead, because cross-shard interactions travel the mesh and
// Unblock is only legal from global scope. The bound must be exclusive even
// at a clock tie: a cross-shard wake-up can arrive at exactly B + lookahead
// with an arbitrary processor id. The stream's cap needs no lookahead at
// all — its soundness is positional (serial prefix), not temporal — which
// is why a stream may also carry local-scope operations past the horizon up
// to the cap.
//
// The merged schedule is equivalent to the serial one: the streamed and
// boundary operations ARE the serial sequence of global effects, and
// local-scope operations commute with everything that separates their
// dispatch from its serial position. The lookahead contract — no
// cross-shard effect lands less than lookahead after the clock of the
// operation issuing it — is enforced at Unblock time against a per-shard
// watermark of window-dispatched operations, so a violation is a
// deterministic panic, never a silent schedule divergence.
//
// The machine layer classifies each trap at dispatch time through
// SyncScoped: a per-protocol probe (memsys.ScopeOf, DESIGN §15) reports
// whether the pending access is provably node-private — a local cache hit
// with no directory transition, a store to an exclusively held line. Probes
// are evaluated only at serial-prefix dispatch points (the boundary, the
// serial-phase fast path, the stream), so the classification is a pure
// function of the serial schedule, identical at every shard count, and
// sharded machine runs stay byte-identical to serial runs: results, traces,
// per-protocol counters, and sim.yields/sim.blocks all match to the count
// (benchdiff gates them at 0.0% drift), while the switch/fast-path split
// and the run-queue depth histogram legitimately shift with the shard
// count (benchdiff watches those only between records of the same shard
// count).
package sim

import (
	"fmt"
	"sort"
	"strings"

	"zsim/internal/metrics"
)

// scope classifies a processor's pending operation: global-scope operations
// (Sync, and conservatively everything whose scope is unknown — initial
// dispatch, wake-ups) may touch shared simulation state and wake other
// processors, so outside a stream they serialize at window boundaries;
// local-scope operations (SyncLocal) touch only processor/shard-private
// state and may run concurrently inside any window.
type scope uint8

const (
	scopeGlobal scope = iota
	scopeLocal
)

// phaseKind says who is dispatching: the coordinator (serial phase, the
// window boundary) or the per-shard window loops.
type phaseKind uint8

const (
	phaseSerial phaseKind = iota
	phaseLocal
)

// winMode is a shard's role in the current window phase.
type winMode uint8

const (
	winNone   winMode = iota
	winLocal          // local-scope operations only, bounded by the horizon
	winStream         // serial-schedule prefix, bounded by the cap
)

// shard is one partition of the processor set with its own run queue. Its
// mutable state is owned by the coordinator between windows and by the
// shard's window goroutine inside one; the go statement and the window
// barrier order the hand-off in both directions, so there is no concurrent
// access.
type shard struct {
	id  int
	eng *Engine
	//zlint:confine global a cross-shard Unblock pushes the woken processor onto the waker's target shard queue; the engine's hand-off serializes it
	runq procHeap
	// panicked is the value of a body panic caught by this shard's window
	// goroutine; the coordinator re-raises it after the barrier.
	panicked any

	// Window-phase accounting (the serial phase accounts on the Engine).
	switches uint64 // window dispatches
	blocks   uint64 // Block calls observed inside windows
	//zlint:confine shard bumped only by the shard's own window dispatch loop
	fastPathHits uint64 // inline returns inside windows
	dispatches   uint64 // total dispatches attributed to this shard (both phases)

	// Window state for the current phase, set by the coordinator's survey
	// and cleared at the barrier. hz bounds local-scope admissions in both
	// modes; capped/capClock/capID bound a stream: the exclusive (clock, id)
	// cap below which this shard's operations are the serial schedule's own
	// prefix (the minimal head of the other shards at survey time; an
	// uncapped stream — no other shard had a head — admits everything
	// streamable). windowDone/windowFinish are the completion results
	// harvested at the barrier.
	win          winMode
	hz           horizon
	capped       bool
	capClock     Time
	capID        int
	windowDone   int
	windowFinish Time

	// Watermark of the last operation this shard dispatched inside a
	// window, as its (clock, id) at dispatch. A wake-up ordering below it
	// would have to rewrite history the window already executed, so Unblock
	// treats that as a lookahead-contract violation and panics. wmID == -1
	// means no window dispatch yet (nothing can order below (0, -1)).
	//zlint:confine shard the watermark is advanced only by the shard's own window dispatches
	wmClock Time
	//zlint:confine shard the watermark is advanced only by the shard's own window dispatches
	wmID int
}

// horizon is the exclusive virtual-time upper bound on local-scope window
// admissions: B + lookahead, where B is the minimal (clock, id) head across
// all shards. The bound is exclusive regardless of processor id — a
// cross-shard effect can land at exactly B + lookahead with an arbitrary
// id, so a clock tie must wait for the next window.
type horizon struct {
	clock Time
}

// admits reports whether p's pending operation falls strictly inside the
// window.
func (h horizon) admits(p *Proc) bool { return p.clock < h.clock }

// beforeCap reports whether p's (clock, id) orders strictly below this
// shard's stream cap. An uncapped stream admits everything: with no pending
// head anywhere else, this shard's order IS the serial order.
func (s *shard) beforeCap(p *Proc) bool {
	return !s.capped || p.clock < s.capClock || (p.clock == s.capClock && p.id < s.capID)
}

// admitsLocal reports whether a declared local-scope operation of p — this
// shard's minimal pending processor — may be dispatched inside the shard's
// current window. Local-only windows admit up to the horizon; a stream
// additionally admits up to its cap (serial-prefix position needs no
// lookahead).
func (s *shard) admitsLocal(p *Proc) bool {
	switch s.win {
	case winLocal:
		return s.hz.admits(p)
	case winStream:
		return s.hz.admits(p) || s.beforeCap(p)
	}
	return false
}

// streamable reports whether p's pending operation may ride a stream: a
// deferred-probe trap (a machine memory access — it never wakes anyone, and
// its global effects are exactly the serial ones when dispatched in
// serial-prefix order) or a declared local-scope operation. Plain
// global-scope operations (psync traps, wake-up sources) end a stream at
// the boundary.
func streamable(p *Proc) bool { return p.probe != nil || p.pscope == scopeLocal }

// NewEngineSharded creates an engine with n processors partitioned across
// shards run queues; shardOf maps a processor id to its shard in
// [0, shards). The schedule of global-scope operations is bit-identical to
// NewEngine's; local-scope operations (SyncLocal) and streamed prefixes
// additionally run inside conservative windows. One shard is the degenerate
// case: the full window protocol runs, with every processor in shard 0.
func NewEngineSharded(n, shards int, shardOf func(proc int) int) *Engine {
	if shards <= 0 {
		panic("sim: sharded engine needs at least one shard")
	}
	e := NewEngine(n)
	e.shards = make([]*shard, shards)
	for i := range e.shards {
		e.shards[i] = &shard{id: i, eng: e}
	}
	for _, p := range e.procs {
		s := shardOf(p.id)
		if s < 0 || s >= shards {
			panic(fmt.Sprintf("sim: processor %d assigned to shard %d, want [0,%d)", p.id, s, shards))
		}
		p.shd = e.shards[s]
	}
	e.phaseDone = make(chan *shard)
	return e
}

// Shards returns the shard count (0 for a serial engine).
func (e *Engine) Shards() int { return len(e.shards) }

// SetLookahead sets the conservative cross-shard lookahead: the minimum
// virtual time any effect of a global-scope operation needs to reach
// another shard's private state. The machine layer derives it from the
// minimum cross-shard mesh hop latency (mesh.MinCrossShardLatency). Local
// windows extend to the minimal pending operation across all shards plus
// this bound. Zero (the default) is always safe: no window ever opens and
// the engine executes exactly the serial schedule. A caller setting d > 0
// promises that every cross-shard wake-up lands at least d after the clock
// of the operation issuing it; Unblock enforces the promise against each
// shard's window watermark.
func (e *Engine) SetLookahead(d Time) { e.lookahead = d }

// Lookahead returns the configured cross-shard lookahead.
func (e *Engine) Lookahead() Time { return e.lookahead }

// SetQuiesce installs a coordinator hook called at every serial-phase
// iteration with the (clock, id) key of the minimal pending operation
// across all shards. No processor runs during the call and every future
// dispatch orders at or above the key, so the hook may deterministically
// merge and flush anything staged strictly below it. The machine layer uses
// it to drain per-shard observation buffers in serial-schedule order.
func (e *Engine) SetQuiesce(fn func(clock Time, id int)) { e.quiesce = fn }

// ShardOf returns the shard index of processor i (0 for a serial engine).
func (e *Engine) ShardOf(i int) int {
	if p := e.procs[i]; p.shd != nil {
		return p.shd.id
	}
	return 0
}

// SyncLocal is Sync for a local-scope operation: one that touches only
// state private to this processor or its shard (pure computation steps,
// shard-private bookkeeping). On a serial engine it is exactly Sync. On a
// sharded engine it lets the operation run concurrently with other shards
// inside the current window; the per-shard dispatch order is still
// (clock, id). A SyncLocal operation must not mutate shared simulation
// state and must not Unblock anything — Unblock from inside a local window
// panics.
func (p *Proc) SyncLocal() {
	if p.eng.shards == nil {
		p.Sync()
		return
	}
	p.syncSharded(scopeLocal)
}

// syncSharded is the sharded-mode trap: record the pending operation's
// scope, take the fast path when dispatch order provably cannot change, and
// otherwise switch back to whichever loop dispatched this processor.
func (p *Proc) syncSharded(sc scope) {
	e := p.eng
	if e.aborting {
		panic(abortRun{})
	}
	p.pscope = sc
	p.probe = nil
	s := p.shd
	if e.phase == phaseLocal {
		// Inside a window only this shard's loop can dispatch p; the inline
		// return is legal while p stays the shard minimum and the window
		// admits the operation. Global-scope operations always yield: they
		// must wait for the window boundary.
		if sc == scopeLocal && (len(s.runq) == 0 || procLess(p, s.runq[0])) && s.admitsLocal(p) {
			s.fastPathHits++
			s.wmClock, s.wmID = p.clock, p.id
			p.dispatchAt = p.clock
			return
		}
	} else if e.precedesAllHeads(p) {
		// Serial phase: p runs alone; if it still precedes every shard's
		// head it is exactly the processor the coordinator would dispatch
		// next — the same condition as the serial engine's fast path. The
		// inline continuation is still the serially running operation, so
		// its scope keeps governing Unblock legality.
		e.fastPathHits++
		e.curScope = sc
		p.dispatchAt = p.clock
		return
	}
	p.trap(yieldRunnable)
}

// SyncScoped is Sync with the scope decision deferred to dispatch time: the
// probe must be a cheap, pure function of simulation state that reports
// whether the pending operation is provably node-private (it would touch
// only state owned by this processor's node and perform no Unblock). The
// classification only feeds accounting and the Unblock tripwires — it never
// licenses out-of-order execution: a deferred-probe trap is dispatched
// exclusively at serial-prefix points (the window boundary, the
// serial-phase fast path, or a stream strictly below its cap), so both the
// probe and the operation's own effects see exactly the state a serial run
// would show them. That makes the per-trap local/global split a pure
// function of the serial schedule, independent of the shard count. The
// return value is the final classification (true = classified node-private
// at dispatch); on a serial engine SyncScoped is exactly Sync and returns
// false.
//
// Probe contract, enforced by the PR 7 tripwires: a probe that overclaims —
// returns true for an operation that wakes a processor — trips the
// curScope/window panics in Unblock deterministically rather than
// corrupting the schedule. The probe itself must not mutate any simulation
// state; it runs only at serial-prefix dispatch points, never concurrently
// with another shard's deferred-probe traps, but it may run concurrently
// with other shards' local-scope operations, so it must not read state
// local-scope operations write.
func (p *Proc) SyncScoped(probe func() bool) bool {
	e := p.eng
	if e.shards == nil {
		p.Sync()
		return false
	}
	if e.aborting {
		panic(abortRun{})
	}
	p.probe = probe
	s := p.shd
	if e.phase == phaseLocal {
		// Only a stream may dispatch a deferred-probe trap mid-window, and
		// only strictly below its cap, where the streamed prefix is the
		// serial schedule itself. Local-only windows never admit probe
		// traps and never evaluate probes — the stream may be mutating the
		// protocol state a probe reads.
		if s.win == winStream && (len(s.runq) == 0 || procLess(p, s.runq[0])) && s.beforeCap(p) {
			if probe() {
				p.pscope = scopeLocal
			} else {
				p.pscope = scopeGlobal
			}
			s.fastPathHits++
			s.wmClock, s.wmID = p.clock, p.id
			p.dispatchAt = p.clock
			return p.pscope == scopeLocal
		}
	} else if e.precedesAllHeads(p) {
		// Serial-phase continuation: p runs alone, so the probe sees exactly
		// the state the serial engine would dispatch against. The resulting
		// scope governs Unblock legality for the inline continuation.
		sc := scopeGlobal
		if probe() {
			sc = scopeLocal
		}
		p.pscope = sc
		e.fastPathHits++
		e.curScope = sc
		p.dispatchAt = p.clock
		return sc == scopeLocal
	}
	p.trap(yieldRunnable)
	// The dispatching side (stream loop or boundary) evaluated the probe and
	// recorded the final classification before resuming us.
	return p.pscope == scopeLocal
}

// precedesAllHeads reports whether p orders before every pending processor
// across all shards — the sharded equivalent of "precedes the run-queue
// head".
func (e *Engine) precedesAllHeads(p *Proc) bool {
	for _, s := range e.shards {
		if len(s.runq) > 0 && !procLess(p, s.runq[0]) {
			return false
		}
	}
	return true
}

// runnable returns the total number of queued processors across all shards.
func (e *Engine) runnable() int {
	n := 0
	for _, s := range e.shards {
		n += len(s.runq)
	}
	return n
}

// runSharded is Run for a sharded engine: alternate serial window
// boundaries (one global-scope operation at a time, in exactly the serial
// engine's (clock, id) order) with window phases — a serial-prefix stream
// on the minimal shard and local-only windows on the rest.
func (e *Engine) runSharded(body func(p *Proc)) Time {
	e.phase = phaseSerial
	e.curShard = nil
	e.curScope = scopeGlobal
	e.windows, e.streams, e.xUnblocks = 0, 0, 0
	for _, s := range e.shards {
		s.runq = s.runq[:0]
		s.panicked = nil
		s.switches, s.blocks, s.fastPathHits, s.dispatches = 0, 0, 0, 0
		s.win, s.hz = winNone, horizon{}
		s.capped, s.capClock, s.capID = false, 0, 0
		s.windowDone, s.windowFinish = 0, 0
		s.wmClock, s.wmID = 0, -1
	}
	e.start(body)
	defer e.contain()
	for _, p := range e.procs {
		p.shd.runq.push(p)
	}

	remaining := len(e.procs)
	var finish Time
	for remaining > 0 {
		// Survey the shard heads: the minimal (clock, id) head across ALL
		// shards bounds the next window phase. A local-scope head bounds it
		// just as a global one does — its shard's clocks are nondecreasing,
		// so the head's clock lower-bounds where that shard can next issue a
		// global operation (the only way to affect another shard).
		var bound *Proc
		for _, s := range e.shards {
			if len(s.runq) > 0 && (bound == nil || procLess(s.runq[0], bound)) {
				bound = s.runq[0]
			}
		}
		if bound == nil {
			// No runnable processor anywhere: deadlock.
			panic("sim: deadlock\n" + e.stateDump())
		}

		// Quiescent point: everything is parked and every future dispatch
		// orders at or above bound's (clock, id), so staged observation
		// events strictly below it are final and may be merged out.
		if e.quiesce != nil {
			e.quiesce(bound.clock, bound.id)
		}

		// With zero lookahead nothing lies strictly below the minimal head
		// and no stream opens either, so no window phase ever runs and
		// execution is exactly serial.
		if e.lookahead > 0 {
			hc := bound.clock + e.lookahead
			if hc < bound.clock { // saturate on overflow
				hc = ^Time(0)
			}
			hz := horizon{clock: hc}
			active := 0
			// The minimal shard streams the serial schedule's own prefix
			// when its head is streamable: everything it dispatches below
			// the cap (the other shards' minimal head) precedes every other
			// pending operation, so deferred-probe traps run against
			// exactly the serial state, global effects included. No probe
			// is evaluated here — the stream's own loop evaluates each one
			// at its dispatch.
			bs := bound.shd
			if streamable(bound) {
				bs.win = winStream
				bs.hz = hz
				bs.capped, bs.capClock, bs.capID = false, 0, 0
				for _, s := range e.shards {
					if s == bs || len(s.runq) == 0 {
						continue
					}
					h := s.runq[0]
					if !bs.capped || h.clock < bs.capClock || (h.clock == bs.capClock && h.id < bs.capID) {
						bs.capped, bs.capClock, bs.capID = true, h.clock, h.id
					}
				}
				e.streams++
				active++
			}
			// Every other shard whose head is a declared local-scope
			// operation strictly below the horizon runs a local-only
			// window. Deferred-probe heads are not admitted and their
			// probes are not evaluated: both the probe's reads and the
			// trap's instantaneous global effects belong to the serial
			// prefix, which only the stream replays.
			for _, s := range e.shards {
				if s.win != winNone || len(s.runq) == 0 {
					continue
				}
				h := s.runq[0]
				if h.probe == nil && h.pscope == scopeLocal && hz.admits(h) {
					s.win = winLocal
					s.hz = hz
					active++
				}
			}
			if active > 0 {
				e.phase = phaseLocal
				e.windows++
				if active == 1 && bs.win == winStream {
					// Solo stream: nothing runs concurrently with it, so
					// skip the goroutine spawn and barrier and drive it
					// from the coordinator. This is the common shape for
					// machine runs without hardware multithreading, where
					// the only window work is the stream itself.
					bs.windowLoop()
				} else {
					launched := 0
					for _, s := range e.shards {
						if s.win != winNone {
							launched++
							go s.runWindow()
						}
					}
					for i := 0; i < launched; i++ {
						<-e.phaseDone
					}
					// A body panic caught by a window goroutine surfaces
					// here, lowest shard first, once every window parked.
					for _, s := range e.shards {
						if r := s.panicked; r != nil {
							s.panicked = nil
							panic(r)
						}
					}
				}
				e.phase = phaseSerial
				// Harvest in shard order so the aggregation is deterministic.
				for _, s := range e.shards {
					if s.win == winNone {
						continue
					}
					s.win = winNone
					remaining -= s.windowDone
					s.windowDone = 0
					if s.windowFinish > finish {
						finish = s.windowFinish
					}
				}
				continue
			}
		}

		// Window boundary: run the single minimal operation alone, exactly
		// as the serial engine would. Its scope — with any deferred probe
		// evaluated now, against exactly the state the serial engine would
		// dispatch it on — governs whether Unblock is legal while it runs.
		s := bound.shd
		p, _ := s.runq.pop()
		e.switches++
		s.dispatches++
		e.mRunqDepth.Observe(uint64(e.runnable()))
		if p.probe != nil {
			if p.probe() {
				p.pscope = scopeLocal
			} else {
				p.pscope = scopeGlobal
			}
		}
		e.curShard = s
		e.curScope = p.pscope
		p.dispatchAt = p.clock
		switch kind, live := p.next(); {
		case !live:
			remaining--
			if p.clock > finish {
				finish = p.clock
			}
		case kind == yieldBlocked:
			e.blocks++
		default:
			s.runq.push(p)
		}
	}
	return finish
}

// runWindow drains this shard's admitted window work for one phase, then
// reports at the barrier. It runs on its own goroutine; its processors run
// strictly one at a time within the shard, in (clock, id) order. A body
// panic ends the window early and is handed to the coordinator, which
// re-raises it on Run's goroutine.
func (s *shard) runWindow() {
	defer func() {
		s.panicked = recover()
		s.eng.phaseDone <- s
	}()
	s.windowLoop()
}

// windowLoop is one shard's window-phase dispatch loop, shared by the
// barrier path (runWindow) and the coordinator-driven solo stream. A
// deferred-probe head is dispatched only by a stream strictly below its
// cap, with the probe evaluated at dispatch; a declared local-scope head is
// dispatched while the window admits it; anything else — a plain
// global-scope head, or work beyond the bounds — ends the loop.
func (s *shard) windowLoop() {
	e := s.eng
	for len(s.runq) > 0 {
		p := s.runq[0]
		if p.probe != nil {
			if s.win != winStream || !s.beforeCap(p) {
				break
			}
		} else if p.pscope != scopeLocal || !s.admitsLocal(p) {
			break
		}
		s.runq.pop()
		if p.probe != nil {
			if p.probe() {
				p.pscope = scopeLocal
			} else {
				p.pscope = scopeGlobal
			}
		}
		s.switches++
		s.dispatches++
		s.wmClock, s.wmID = p.clock, p.id
		e.mRunqDepth.Observe(uint64(len(s.runq)))
		p.dispatchAt = p.clock
		switch kind, live := p.next(); {
		case !live:
			s.windowDone++
			if p.clock > s.windowFinish {
				s.windowFinish = p.clock
			}
		case kind == yieldBlocked:
			s.blocks++
		default:
			s.runq.push(p)
		}
	}
}

// shardMetrics publishes the sharded-mode counters: window phases advanced,
// streams among them, cross-shard wake-up deliveries, per-shard window
// dispatches, and the dispatch imbalance (max − min dispatches attributed
// to a shard, both phases counted).
func (e *Engine) shardMetrics(r *metrics.Registry) {
	r.Counter("sim.shard.windows").Add(e.windows)
	r.Counter("sim.shard.streams").Add(e.streams)
	r.Counter("sim.shard.cross_unblocks").Add(e.xUnblocks)
	var local, min, max uint64
	for i, s := range e.shards {
		local += s.switches
		if i == 0 || s.dispatches < min {
			min = s.dispatches
		}
		if s.dispatches > max {
			max = s.dispatches
		}
	}
	r.Counter("sim.shard.local_dispatches").Add(local)
	r.Gauge("sim.shard.imbalance").Set(int64(max - min))
}

// shardStateDump appends the sharded sections of the deadlock report: the
// window/lookahead state and each shard's run-queue contents in (clock, id)
// order with pending-operation scopes.
func (e *Engine) shardStateDump(b *strings.Builder) {
	fmt.Fprintf(b, "  shards=%d lookahead=%d windows=%d streams=%d cross_unblocks=%d\n",
		len(e.shards), e.lookahead, e.windows, e.streams, e.xUnblocks)
	for _, s := range e.shards {
		q := append([]*Proc(nil), s.runq...)
		sort.Slice(q, func(i, j int) bool { return procLess(q[i], q[j]) })
		fmt.Fprintf(b, "  shard %-2d dispatches=%d runq=[", s.id, s.dispatches)
		for i, p := range q {
			if i > 0 {
				b.WriteByte(' ')
			}
			sc := "global"
			switch {
			case p.probe != nil:
				sc = "probe"
			case p.pscope == scopeLocal:
				sc = "local"
			}
			fmt.Fprintf(b, "P%d@%d/%s", p.id, p.clock, sc)
		}
		b.WriteString("]\n")
	}
}
