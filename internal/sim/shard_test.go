package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// evenOdd assigns processors to shards by parity — deliberately not
// contiguous, to exercise arbitrary assignments.
func evenOdd(p int) int { return p % 2 }

// blockShards splits n processors into s contiguous blocks.
func blockShards(n, s int) func(int) int {
	return func(p int) int { return p * s / n }
}

// TestShardedGlobalOrderMatchesSerial drives an all-global-scope workload
// (every trap is Sync) on the serial engine and on sharded engines at 1, 2,
// and 4 shards, and requires the dispatch order of global operations, the
// finish time, and the scheduler counters to be bit-identical: for machine
// workloads (which are all-global) the sharded kernel must be
// indistinguishable from the serial one.
func TestShardedGlobalOrderMatchesSerial(t *testing.T) {
	const n = 8
	type outcome struct {
		order  []int
		finish Time
		sw     uint64
		fp     uint64
		bl     uint64
	}
	exec := func(e *Engine) outcome {
		var o outcome
		o.finish = e.Run(func(p *Proc) {
			for i := 0; i < 6; i++ {
				p.Advance(Time(1 + (p.ID()*7+i*3)%5))
				p.Sync()
				o.order = append(o.order, p.ID())
			}
		})
		o.sw, o.fp, o.bl = e.Switches(), e.FastPathHits(), e.Blocks()
		return o
	}

	want := exec(NewEngine(n))
	for _, shards := range []int{1, 2, 4} {
		got := exec(NewEngineSharded(n, shards, blockShards(n, shards)))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: outcome diverged from serial:\n got %+v\nwant %+v", shards, got, want)
		}
	}
	// A non-contiguous assignment must not change the schedule either.
	if got := exec(NewEngineSharded(n, 2, evenOdd)); !reflect.DeepEqual(got, want) {
		t.Errorf("even/odd shards: outcome diverged from serial:\n got %+v\nwant %+v", got, want)
	}
}

// TestShardedLocalWindowsRunConcurrently pins the point of sharding: with a
// lookahead covering the whole run, an all-local workload finishes with
// (nearly) every trap on the per-shard fast path and advances at most a
// handful of windows, i.e. shards run their processors without any
// per-operation coordination. (Lookahead is what licenses the concurrency:
// with zero lookahead the conservative protocol opens no windows at all.)
func TestShardedLocalWindowsRunConcurrently(t *testing.T) {
	const n, iters = 4, 1000
	e := NewEngineSharded(n, n, blockShards(n, n))
	e.SetLookahead(iters + 1)
	finish := e.Run(func(p *Proc) {
		for i := 0; i < iters; i++ {
			p.Advance(1)
			p.SyncLocal()
		}
	})
	if finish != iters {
		t.Errorf("finish = %d, want %d", finish, iters)
	}
	if e.Windows() == 0 {
		t.Error("no local window advanced for an all-local workload")
	}
	// First dispatch of each processor is a serialized global-scope start;
	// after that every SyncLocal should hit the per-shard fast path.
	if hits := e.FastPathHits(); hits < uint64(n*(iters-2)) {
		t.Errorf("fast-path hits = %d, want >= %d", hits, n*(iters-2))
	}
}

// TestShardedLocalDeterministic runs a mixed local/global workload twice,
// at several shard counts and several lookaheads: per-processor results
// must be identical everywhere (local operations only touch
// processor-private state, so the window protocol cannot change them). The
// workload has no wake-ups, so every lookahead is contract-valid.
func TestShardedLocalDeterministic(t *testing.T) {
	const n = 8
	exec := func(e *Engine) ([n]Time, Time) {
		var clocks [n]Time
		finish := e.Run(func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Advance(Time(1 + (p.ID()+i)%3))
				if i%5 == 0 {
					p.Sync() // periodic global operation bounds the windows
				} else {
					p.SyncLocal()
				}
			}
			clocks[p.ID()] = p.Clock()
		})
		return clocks, finish
	}
	wantClocks, wantFinish := exec(NewEngine(n))
	for _, shards := range []int{1, 2, 4} {
		for _, lookahead := range []Time{0, 1, 5, 1000} {
			for rep := 0; rep < 3; rep++ {
				e := NewEngineSharded(n, shards, blockShards(n, shards))
				e.SetLookahead(lookahead)
				clocks, finish := exec(e)
				if clocks != wantClocks || finish != wantFinish {
					t.Fatalf("shards=%d lookahead=%d rep=%d: clocks=%v finish=%d, want %v / %d",
						shards, lookahead, rep, clocks, finish, wantClocks, wantFinish)
				}
			}
		}
	}
}

// TestShardedBlockUnblock exercises a cross-shard wake-up from a
// global-scope operation: P1 (shard 1) parks, P0 (shard 0) wakes it at a
// later time; the woken processor resumes with its clock advanced, exactly
// as on the serial engine.
func TestShardedBlockUnblock(t *testing.T) {
	e := NewEngineSharded(2, 2, evenOdd)
	var woke Time
	finish := e.Run(func(p *Proc) {
		if p.ID() == 1 {
			p.Block("waiting for P0")
			woke = p.Clock()
			return
		}
		p.Advance(100)
		p.Sync()
		e.Proc(1).Unblock(p.Clock() + 7)
	})
	if woke != 107 {
		t.Errorf("woken clock = %d, want 107", woke)
	}
	if finish != 107 {
		t.Errorf("finish = %d, want 107", finish)
	}
	if e.CrossShardUnblocks() != 1 {
		t.Errorf("cross-shard unblocks = %d, want 1", e.CrossShardUnblocks())
	}
}

// TestShardedUnblockFromWindowPanics pins the safety rule: a wake-up from
// inside a local window (a local-scope operation) is a contract violation
// and must panic rather than race on another shard's run queue. The panic
// fires on the offending processor's goroutine, so the body recovers it
// inline; the never-woken waiter then deadlocks the run, which the test
// recovers (exercising the sharded drain on the way out).
func TestShardedUnblockFromWindowPanics(t *testing.T) {
	e := NewEngineSharded(2, 2, evenOdd)
	e.SetLookahead(2) // a positive lookahead is what opens local windows
	var msg string
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no deadlock panic after the aborted wake-up")
			}
		}()
		e.Run(func(p *Proc) {
			if p.ID() == 1 {
				p.Block("waiting forever")
				return
			}
			// Two local steps: the first traps at clock 5, beyond the
			// horizon of P1's initial dispatch at clock 0, so P1 parks
			// first; once parked, P0's head is the minimal head, a window
			// opens around it, and the second step runs inside it.
			p.Advance(5)
			p.SyncLocal()
			p.Advance(1)
			p.SyncLocal()
			func() {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				e.Proc(1).Unblock(p.Clock())
			}()
		})
	}()
	if !strings.Contains(msg, "local shard window") {
		t.Errorf("Unblock panic = %q, want the local-window message", msg)
	}
}

// TestShardedUnblockFromLocalScopeSerialPanics pins the other half of the
// wake-up contract: even when a local-scope operation is dispatched in the
// serial phase (zero lookahead opens no windows, so SyncLocal traps
// serialize through the coordinator), an Unblock from it is a contract
// violation — the same program under a positive lookahead would run the
// operation inside a window and diverge. The engine panics either way.
func TestShardedUnblockFromLocalScopeSerialPanics(t *testing.T) {
	e := NewEngineSharded(2, 2, evenOdd)
	var msg string
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no deadlock panic after the aborted wake-up")
			}
		}()
		e.Run(func(p *Proc) {
			if p.ID() == 1 {
				p.Block("waiting forever")
				return
			}
			p.Advance(1)
			p.SyncLocal()
			func() {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				e.Proc(1).Unblock(p.Clock())
			}()
		})
	}()
	if !strings.Contains(msg, "local-scope") {
		t.Errorf("Unblock panic = %q, want the local-scope message", msg)
	}
}

// TestShardedLocalHeadBoundsWindow is the regression test for the unsound
// window bound: shard 0's minimal head is a LOCAL operation at clock 2,
// behind which P0 turns global at clock 4 and cross-shard-wakes P3 at
// clock 5 — far below the minimal GLOBAL head (P2's Sync at clock 200). A
// horizon derived from global heads only would let shard 1 run P1's local
// operations at clocks 10..100 before the wake-up ever issued, reordering
// them ahead of P3's woken operations at clocks 6..8. The bound must
// therefore come from the minimal head across ALL shards: a local head
// lower-bounds where its shard can next go global. Shard 1's event log
// must match the serial engine's exactly, at every lookahead valid for the
// workload's one-cycle wake latency.
func TestShardedLocalHeadBoundsWindow(t *testing.T) {
	exec := func(e *Engine) ([]string, Time) {
		// Only shard-1 processors append to the log, and a shard runs one
		// processor at a time, so the appends are race-free by construction.
		var log []string
		finish := e.Run(func(p *Proc) {
			switch p.ID() {
			case 0: // shard 0: local head at 2, then global at 4 waking P3 at 5
				p.Advance(2)
				p.SyncLocal()
				p.Advance(2)
				p.Sync()
				e.Proc(3).Unblock(p.Clock() + 1)
			case 2: // shard 0: the distant global bound
				p.Advance(200)
				p.Sync()
			case 1: // shard 1: local operations at 10, 20, ..., 100
				for i := 0; i < 10; i++ {
					p.Advance(10)
					p.SyncLocal()
					log = append(log, fmt.Sprintf("P1@%d", p.Clock()))
				}
			case 3: // shard 1: woken at 5, local operations at 6, 7, 8
				p.Block("release")
				for i := 0; i < 3; i++ {
					p.Advance(1)
					p.SyncLocal()
					log = append(log, fmt.Sprintf("P3@%d", p.Clock()))
				}
			}
		})
		return log, finish
	}
	wantLog, wantFinish := exec(NewEngine(4))
	for _, lookahead := range []Time{0, 1} {
		e := NewEngineSharded(4, 2, evenOdd)
		e.SetLookahead(lookahead)
		log, finish := exec(e)
		if !reflect.DeepEqual(log, wantLog) || finish != wantFinish {
			t.Errorf("lookahead=%d: shard-1 log diverged from serial:\n got %v finish=%d\nwant %v finish=%d",
				lookahead, log, finish, wantLog, wantFinish)
		}
	}
}

// TestShardedWakeBelowWindowWatermarkPanics pins the lookahead-contract
// tripwire: with a lookahead far beyond the workload's real wake latency,
// shard 1 legally runs P1's local operations up to clock 50 inside the
// first window; P0's global operation at clock 4 then tries to wake P3 at
// clock 5 — below an operation shard 1 already executed. The engine must
// panic deterministically rather than let the merged schedule silently
// diverge from the serial one.
func TestShardedWakeBelowWindowWatermarkPanics(t *testing.T) {
	e := NewEngineSharded(4, 2, evenOdd)
	e.SetLookahead(100) // far wider than the workload's 1-cycle wake latency
	var msg string
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no deadlock panic after the aborted wake-up")
			}
		}()
		e.Run(func(p *Proc) {
			switch p.ID() {
			case 0:
				p.Advance(2)
				p.SyncLocal()
				p.Advance(2)
				p.Sync()
				func() {
					defer func() {
						if r := recover(); r != nil {
							msg = fmt.Sprint(r)
						}
					}()
					e.Proc(3).Unblock(p.Clock() + 1)
				}()
			case 1: // shard 1: window work at clocks 10..50
				for i := 0; i < 5; i++ {
					p.Advance(10)
					p.SyncLocal()
				}
			case 3:
				p.Block("never released in time")
			}
		})
	}()
	if !strings.Contains(msg, "window watermark") {
		t.Errorf("Unblock panic = %q, want the window-watermark message", msg)
	}
}

// TestShardedHorizonExclusiveBound pins the horizon rule after the window
// bound B (the minimal head across all shards) is extended by the
// lookahead: the bound is strictly exclusive at any processor id, because a
// cross-shard effect can land at exactly B+L with an arbitrary id. Clock
// ties at the horizon must wait for the next window regardless of id.
func TestShardedHorizonExclusiveBound(t *testing.T) {
	hz := horizon{clock: 10}
	for _, id := range []int{0, 1, 5} {
		if hz.admits(&Proc{id: id, clock: 10}) {
			t.Errorf("(10, %d) admitted at horizon 10; clock ties at the bound must wait", id)
		}
		if hz.admits(&Proc{id: id, clock: 11}) {
			t.Errorf("(11, %d) admitted at horizon 10", id)
		}
		if !hz.admits(&Proc{id: id, clock: 9}) {
			t.Errorf("(9, %d) not admitted at horizon 10", id)
		}
	}
}

// TestShardedLookaheadExtendsWindow pins the mesh-latency lookahead: with
// SetLookahead(L), local operations strictly below B+L (B the minimal head
// across all shards) run inside concurrent windows. With zero lookahead the
// conservative protocol opens no windows at all — nothing lies strictly
// below the minimal head — so every operation serializes through the
// coordinator; a lookahead wider than processor 1's global stride lets
// processor 0 glide over most bounds on the per-shard fast path.
func TestShardedLookaheadExtendsWindow(t *testing.T) {
	run := func(lookahead Time) (fast, switches, windows uint64) {
		e := NewEngineSharded(2, 2, evenOdd)
		e.SetLookahead(lookahead)
		e.Run(func(p *Proc) {
			if p.ID() == 1 {
				// Global bound stepping 10, 20, ..., 100.
				for i := 0; i < 10; i++ {
					p.Advance(10)
					p.Sync()
				}
				return
			}
			for i := 0; i < 105; i++ {
				p.Advance(1)
				p.SyncLocal()
			}
		})
		return e.FastPathHits(), e.Switches(), e.Windows()
	}
	baseFast, baseSw, baseWin := run(0)
	extFast, extSw, extWin := run(50)
	if baseWin != 0 {
		t.Errorf("zero lookahead opened %d windows, want 0 (conservative protocol has nothing below the minimal head)", baseWin)
	}
	if extWin == 0 {
		t.Error("lookahead 50 opened no windows")
	}
	if extFast <= baseFast {
		t.Errorf("lookahead did not extend the fast path: %d hits (L=0) vs %d (L=50)", baseFast, extFast)
	}
	if extSw >= baseSw {
		t.Errorf("lookahead did not reduce context switches: %d (L=0) vs %d (L=50)", baseSw, extSw)
	}
}

// TestShardedZeroHopLookahead pins the degenerate lookahead: processors on
// the same home node (same shard) have zero-hop interactions, so the
// lookahead contributes nothing within a shard — same-shard operations are
// ordered purely by the per-shard (clock, id) queue. Two same-shard
// processors running mixed workloads must produce the serial schedule.
func TestShardedZeroHopLookahead(t *testing.T) {
	exec := func(e *Engine) []int {
		var order []int
		e.Run(func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Advance(Time(2 + p.ID()))
				p.Sync()
				order = append(order, p.ID())
			}
		})
		return order
	}
	want := exec(NewEngine(2))
	// Both processors in shard 0 of a 2-shard engine; shard 1 is empty.
	got := exec(NewEngineSharded(2, 2, func(int) int { return 0 }))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("same-shard schedule %v, want serial %v", got, want)
	}
}

// TestShardedDeadlockDumpAndReuse mirrors the serial engine's recovered-
// deadlock guarantee (satellite: shard-aware stateDump + reusable engine):
// a sharded deadlock panics with shard identity and per-shard run-queue
// contents in the dump, drains every goroutine, and leaves the engine
// reusable for a subsequent good run.
func TestShardedDeadlockDumpAndReuse(t *testing.T) {
	e := NewEngineSharded(4, 2, evenOdd)
	var dump string
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no deadlock panic")
			}
			dump = fmt.Sprint(r)
		}()
		e.Run(func(p *Proc) {
			if p.ID() < 2 {
				p.Block("never woken")
				return
			}
			p.Advance(Time(p.ID()))
			p.Sync()
		})
	}()
	for _, want := range []string{"shards=2", "shard 0", "shard 1", "shard=0", "shard=1", `reason="never woken"`} {
		if !strings.Contains(dump, want) {
			t.Errorf("deadlock dump missing %q:\n%s", want, dump)
		}
	}
	// The engine must be fully reusable after the recovered deadlock.
	finish := e.Run(func(p *Proc) {
		p.Advance(Time(1 + p.ID()))
		p.Sync()
	})
	if finish != 4 {
		t.Errorf("post-deadlock run finish = %d, want 4", finish)
	}
}

// TestShardedDeadlockDrainRunsDefers mirrors the serial drain test: the
// teardown must unwind parked goroutines through their defers.
func TestShardedDeadlockDrainRunsDefers(t *testing.T) {
	e := NewEngineSharded(4, 2, evenOdd)
	var deferred atomic.Int32
	func() {
		defer func() { _ = recover() }()
		e.Run(func(p *Proc) {
			defer deferred.Add(1)
			if p.ID() != 0 {
				p.Block("wedged")
			}
		})
	}()
	if got := deferred.Load(); got != 4 {
		t.Errorf("defers run during drain = %d, want 4", got)
	}
}

// TestShardedBodyPanicContained pins the serial engine's body-panic
// contract on sharded engines: with zero lookahead the panic surfaces from
// a boundary dispatch on the coordinator.
func TestShardedBodyPanicContained(t *testing.T) {
	checkBodyPanicContained(t, NewEngineSharded(4, 2, evenOdd))
}

// TestShardedWindowPanicContained: a body panicking inside a local window
// run on a window goroutine rather than the coordinator reaches the caller
// of Run with its original value after the barrier, and leaves no goroutine
// behind and the engine reusable. P2 panics in shard 0's window while P3,
// shard 1's global-scope head, has not been dispatched yet: every body that
// started has its defers run, and P3's body never starts.
func TestShardedWindowPanicContained(t *testing.T) {
	e := NewEngineSharded(4, 2, evenOdd)
	e.SetLookahead(1000)
	var started, unwound [4]atomic.Bool
	body := func(p *Proc) {
		started[p.ID()].Store(true)
		defer unwound[p.ID()].Store(true)
		for i := 0; i < 20; i++ {
			p.Advance(1)
			p.SyncLocal()
			if p.ID() == 2 && i == 5 {
				panic("window boom")
			}
		}
	}
	if r := runRecovered(e, body); r != "window boom" {
		t.Fatalf("Run panicked with %v, want the body's own \"window boom\"", r)
	}
	if e.Windows() == 0 {
		t.Fatal("no window opened: the panic did not come from a window")
	}
	for i := range unwound {
		if want := i != 3; started[i].Load() != want || unwound[i].Load() != want {
			t.Errorf("P%d started=%v unwound=%v, want both %v", i, started[i].Load(), unwound[i].Load(), want)
		}
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		runRecovered(e, body)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d across 50 panicking Runs", before, after)
	}
	if finish := e.Run(func(p *Proc) { p.Advance(3); p.SyncLocal() }); finish != 3 {
		t.Errorf("post-panic run finish = %d, want 3", finish)
	}
}

// TestShardedOneShardIsSerialSchedule runs the degenerate single-shard
// configuration through the full window protocol and requires counters and
// schedule identical to the serial engine on a workload with blocking.
func TestShardedOneShardIsSerialSchedule(t *testing.T) {
	type outcome struct {
		finish Time
		sw     uint64
		fp     uint64
		bl     uint64
	}
	exec := func(e *Engine) outcome {
		finish := e.Run(func(p *Proc) {
			if p.ID() == 3 {
				p.Block("flag")
				return
			}
			p.Advance(Time(10 * (p.ID() + 1)))
			p.Sync()
			if p.ID() == 0 {
				e.Proc(3).Unblock(p.Clock() + 1)
			}
		})
		return outcome{finish, e.Switches(), e.FastPathHits(), e.Blocks()}
	}
	want := exec(NewEngine(4))
	got := exec(NewEngineSharded(4, 1, func(int) int { return 0 }))
	if got != want {
		t.Errorf("1-shard outcome %+v, want serial %+v", got, want)
	}
}

// TestShardedScopedProbeStreams pins the stream machinery behind SyncScoped:
// deferred-probe operations are dispatched only on the serial prefix (the
// minimal shard's stream, or the boundary), so the dispatch order, the
// finish time, and the per-processor classification tallies are identical
// at every shard count — and with a positive lookahead at least one stream
// actually opens. The workload mixes probe traps (alternating local/global
// classifications) with plain global Syncs that end streams.
func TestShardedScopedProbeStreams(t *testing.T) {
	const n = 4
	type outcome struct {
		order  []int
		finish Time
		local  [n]int
	}
	exec := func(e *Engine) outcome {
		var o outcome
		o.finish = e.Run(func(p *Proc) {
			for i := 0; i < 30; i++ {
				p.Advance(Time(1 + (p.ID()*5+i*3)%4))
				if i%7 == 0 {
					p.Sync() // stream terminator: may wake, must hit the boundary
				} else {
					i := i
					if p.SyncScoped(func() bool { return i%3 != 0 }) {
						o.local[p.ID()]++
					}
				}
				o.order = append(o.order, p.ID())
			}
		})
		return o
	}
	// The serial engine fixes the reference schedule (SyncScoped returns
	// false there, so classifications are compared across shard counts).
	ref := exec(NewEngine(n))
	var want outcome
	for i, shards := range []int{1, 2, 4} {
		e := NewEngineSharded(n, shards, blockShards(n, shards))
		e.SetLookahead(3)
		got := exec(e)
		if !reflect.DeepEqual(got.order, ref.order) || got.finish != ref.finish {
			t.Errorf("shards=%d: schedule diverged from serial", shards)
		}
		if e.Streams() == 0 {
			t.Errorf("shards=%d: no stream opened for a probe-heavy workload", shards)
		}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: outcome diverged across shard counts:\n got %+v\nwant %+v", shards, got, want)
		}
	}
}

// TestShardedStreamEndsAtGlobalHead pins the stream's stopping rule: a
// plain global-scope operation (the only kind that may Unblock) never rides
// a stream — it waits for the serialized boundary, from which a cross-shard
// wake-up is legal and lands exactly as in the serial schedule, even when
// the lookahead would have admitted far more streamed work.
func TestShardedStreamEndsAtGlobalHead(t *testing.T) {
	exec := func(e *Engine) (Time, Time) {
		var woke Time
		finish := e.Run(func(p *Proc) {
			if p.ID() == 1 {
				p.Block("waiting for P0")
				woke = p.Clock()
				return
			}
			for i := 0; i < 3; i++ {
				p.Advance(1)
				p.SyncScoped(func() bool { return true })
			}
			p.Advance(1)
			p.Sync()
			e.Proc(1).Unblock(p.Clock() + 2)
		})
		return woke, finish
	}
	wantWoke, wantFinish := exec(NewEngine(2))
	e := NewEngineSharded(2, 2, evenOdd)
	e.SetLookahead(100)
	woke, finish := exec(e)
	if woke != wantWoke || finish != wantFinish {
		t.Errorf("stream run woke=%d finish=%d, want serial %d / %d", woke, finish, wantWoke, wantFinish)
	}
	if e.Streams() == 0 {
		t.Error("no stream opened before the global head")
	}
}

// TestShardedOverclaimingProbePanics is the adversarial fence for the probe
// contract (DESIGN §15): a probe that overclaims — reports node-private for
// an operation that then wakes another processor — must trip a
// deterministic panic at the Unblock, never corrupt the schedule. Both
// dispatch paths are exercised: a stream dispatch (positive lookahead)
// trips the local-window tripwire, and a boundary dispatch (zero lookahead,
// where the overclaim sets the serial operation's scope to local) trips the
// local-scope tripwire.
func TestShardedOverclaimingProbePanics(t *testing.T) {
	for _, tc := range []struct {
		name      string
		lookahead Time
		wantMsg   string
	}{
		{"stream dispatch", 2, "local shard window"},
		{"boundary dispatch", 0, "local-scope"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngineSharded(2, 2, evenOdd)
			e.SetLookahead(tc.lookahead)
			var msg string
			func() {
				defer func() {
					if recover() == nil {
						t.Error("no deadlock panic after the aborted wake-up")
					}
				}()
				e.Run(func(p *Proc) {
					if p.ID() == 1 {
						p.Block("waiting forever")
						return
					}
					p.Advance(1)
					p.SyncScoped(func() bool { return true }) // overclaims: the op wakes P1
					func() {
						defer func() {
							if r := recover(); r != nil {
								msg = fmt.Sprint(r)
							}
						}()
						e.Proc(1).Unblock(p.Clock())
					}()
				})
			}()
			if !strings.Contains(msg, tc.wantMsg) {
				t.Errorf("Unblock panic = %q, want it to mention %q", msg, tc.wantMsg)
			}
		})
	}
}

// TestShardedStreamCarriesLocalPastHorizon pins the stream's positional
// license: declared local-scope operations on the minimal shard stream up
// to the cap (the other shards' minimal head) even when that lies far past
// B + lookahead, because serial-prefix position — unlike the horizon —
// needs no latency argument. With the competing head at 1000 and a
// lookahead of 2, all ten of P0's local steps fit one window phase.
func TestShardedStreamCarriesLocalPastHorizon(t *testing.T) {
	e := NewEngineSharded(2, 2, evenOdd)
	e.SetLookahead(2)
	finish := e.Run(func(p *Proc) {
		if p.ID() == 1 {
			p.Advance(1000)
			p.Sync()
			return
		}
		for i := 0; i < 10; i++ {
			p.Advance(10)
			p.SyncLocal()
		}
	})
	if finish != 1000 {
		t.Errorf("finish = %d, want 1000", finish)
	}
	if e.Windows() != 1 {
		t.Errorf("window phases = %d, want exactly 1 (one stream covers P0's run)", e.Windows())
	}
	if e.Streams() != 1 {
		t.Errorf("streams = %d, want 1", e.Streams())
	}
}

// TestShardedAssignmentValidation pins constructor contract violations.
func TestShardedAssignmentValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		assign func(int) int
	}{
		{"zero shards", 0, func(int) int { return 0 }},
		{"negative assignment", 2, func(int) int { return -1 }},
		{"out of range", 2, func(int) int { return 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			NewEngineSharded(2, tc.shards, tc.assign)
		})
	}
}

// BenchmarkEngineHotLoopSharded is the sharded variant of
// BenchmarkEngineHotLoop: every processor spins on local-scope operations
// in its own shard, so on a multicore host the shards advance concurrently
// with per-shard fast-path dispatch. Compare against
// BenchmarkEngineHotLoopLockstep (the same workload on the serial engine,
// where the four processors ping-pong through the scheduler).
func BenchmarkEngineHotLoopSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const procs = 4
			e := NewEngineSharded(procs, shards, blockShards(procs, shards))
			iters := b.N/procs + 1
			// Independent local phases: a lookahead covering the run models
			// work with no cross-shard interactions at all, so one window
			// spans the whole loop.
			e.SetLookahead(Time(iters) + 2)
			b.ReportAllocs()
			e.Run(func(p *Proc) {
				for i := 0; i < iters; i++ {
					p.Advance(1)
					p.SyncLocal()
				}
			})
			b.ReportMetric(float64(e.FastPathHits())/float64(b.N), "fastpath_hits/op")
		})
	}
}

// BenchmarkEngineHotLoopLockstep is the serial baseline for the sharded
// hot loop: the same all-local workload on the serial engine, where
// SyncLocal degenerates to Sync and the processors advance in lockstep
// through the run queue.
func BenchmarkEngineHotLoopLockstep(b *testing.B) {
	const procs = 4
	e := NewEngine(procs)
	iters := b.N/procs + 1
	b.ReportAllocs()
	e.Run(func(p *Proc) {
		for i := 0; i < iters; i++ {
			p.Advance(1)
			p.SyncLocal()
		}
	})
	b.ReportMetric(float64(e.FastPathHits())/float64(b.N), "fastpath_hits/op")
}
