package proto

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"zsim/internal/directory"
	"zsim/internal/memsys"
	"zsim/internal/mesh"
)

// newSys builds a fresh system of the given kind on a private mesh.
func newSys(t testing.TB, kind memsys.Kind) memsys.MemSystem {
	t.Helper()
	p := memsys.Default(16)
	return MustNew(kind, p, mesh.New(p))
}

func newSysParams(t testing.TB, kind memsys.Kind, p memsys.Params) memsys.MemSystem {
	t.Helper()
	return MustNew(kind, p, mesh.New(p))
}

func TestFactoryAllKinds(t *testing.T) {
	for _, k := range memsys.Kinds() {
		s := newSys(t, k)
		if s.Name() != k {
			t.Errorf("New(%s).Name() = %s", k, s.Name())
		}
	}
}

func TestFactoryUnknownKind(t *testing.T) {
	p := memsys.Default(16)
	if _, err := New("bogus", p, mesh.New(p)); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestFactoryRejectsBadParams(t *testing.T) {
	p := memsys.Default(16)
	p.LineSize = 24
	net := mesh.New(memsys.Default(16))
	if _, err := New(memsys.KindRCInv, p, net); err == nil {
		t.Fatal("expected validation error")
	}
}

// --- PRAM ---

func TestPRAMAllFree(t *testing.T) {
	s := newSys(t, memsys.KindPRAM)
	if s.Read(0, 64, 8, 10) != 0 || s.Write(1, 64, 8, 20) != 0 ||
		s.Release(0, 30) != 0 || s.Acquire(0, 30) != 0 {
		t.Fatal("PRAM must cost nothing")
	}
	c := s.Counters()
	if c.Reads != 1 || c.Writes != 1 {
		t.Fatalf("counters: %s", c)
	}
}

// --- z-machine ---

func TestZMachineInherentCost(t *testing.T) {
	p := memsys.Default(16)
	net := mesh.New(p)
	s := MustNew(memsys.KindZMachine, p, net)
	L := net.MaxUncontendedLatency(0, p.ZLineSize)

	if st := s.Write(0, 100, 4, 1000); st != 0 {
		t.Fatalf("z-machine write stall = %d, want 0", st)
	}
	// Immediate consumer read: stalls for the remaining propagation.
	if st := s.Read(1, 100, 4, 1000); st != L {
		t.Fatalf("read stall = %d, want L = %d", st, L)
	}
	// Read after L has elapsed: fully overlapped, no cost.
	if st := s.Read(2, 100, 4, 1000+L); st != 0 {
		t.Fatalf("late read stall = %d, want 0", st)
	}
	// Partial overlap.
	if st := s.Read(3, 100, 4, 1000+L/2); st != L-L/2 {
		t.Fatalf("partial read stall = %d, want %d", st, L-L/2)
	}
}

func TestZMachineProducerReadsOwnWrite(t *testing.T) {
	s := newSys(t, memsys.KindZMachine)
	s.Write(5, 200, 4, 10)
	if st := s.Read(5, 200, 4, 11); st != 0 {
		t.Fatalf("producer stalled %d cycles on its own datum", st)
	}
}

func TestZMachineNoWriteStallNoFlush(t *testing.T) {
	s := newSys(t, memsys.KindZMachine)
	for i := 0; i < 100; i++ {
		if st := s.Write(0, memsys.Addr(i*4), 4, Time(i)); st != 0 {
			t.Fatalf("write %d stalled %d", i, st)
		}
	}
	if s.Release(0, 100) != 0 || s.Acquire(0, 100) != 0 {
		t.Fatal("z-machine release/acquire must be free")
	}
}

func TestZMachineUnwrittenReadFree(t *testing.T) {
	s := newSys(t, memsys.KindZMachine)
	if st := s.Read(0, 4096, 8, 0); st != 0 {
		t.Fatalf("read of never-written data stalled %d", st)
	}
}

func TestZMachineMultiWordWrite(t *testing.T) {
	p := memsys.Default(16)
	net := mesh.New(p)
	s := MustNew(memsys.KindZMachine, p, net)
	s.Write(0, 0, 8, 0) // covers z-lines 0 and 1
	L := net.MaxUncontendedLatency(0, p.ZLineSize)
	if st := s.Read(1, 4, 4, 0); st != L {
		t.Fatalf("second word not propagated: stall = %d, want %d", st, L)
	}
}

// Property: z-machine read stall never exceeds the worst-case propagation
// latency.
func TestZMachineStallBoundProperty(t *testing.T) {
	p := memsys.Default(16)
	net := mesh.New(p)
	s := MustNew(memsys.KindZMachine, p, net)
	var maxL Time
	for src := 0; src < 16; src++ {
		if l := net.MaxUncontendedLatency(src, p.ZLineSize); l > maxL {
			maxL = l
		}
	}
	f := func(w, r uint8, addr uint16, gap uint8) bool {
		now := Time(1000)
		s.Write(int(w)%16, memsys.Addr(addr)*4, 4, now)
		st := s.Read(int(r)%16, memsys.Addr(addr)*4, 4, now+Time(gap))
		return st <= maxL
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- RCinv ---

func TestRCInvColdMissThenHit(t *testing.T) {
	s := newSys(t, memsys.KindRCInv)
	st1 := s.Read(0, 64, 8, 0)
	if st1 == 0 {
		t.Fatal("cold read should miss")
	}
	if st2 := s.Read(0, 64, 8, st1); st2 != 0 {
		t.Fatalf("second read stalled %d, want hit", st2)
	}
	c := s.Counters()
	if c.ReadMisses != 1 || c.ColdMisses != 1 {
		t.Fatalf("miss counters: %s", c)
	}
}

func TestRCInvWriteBuffered(t *testing.T) {
	s := newSys(t, memsys.KindRCInv)
	// First write misses but is absorbed by the store buffer: no stall.
	if st := s.Write(0, 64, 8, 0); st != 0 {
		t.Fatalf("buffered write stalled %d", st)
	}
	// Same line again: owned (pending), free.
	if st := s.Write(0, 68, 8, 1); st != 0 {
		t.Fatalf("write to owned line stalled %d", st)
	}
	if c := s.Counters(); c.WriteMisses != 1 {
		t.Fatalf("write misses = %d, want 1", c.WriteMisses)
	}
}

func TestRCInvStoreBufferFullStalls(t *testing.T) {
	s := newSys(t, memsys.KindRCInv)
	// 5 writes to distinct lines at the same instant: 4 absorb, the 5th
	// must wait for a retirement.
	var stalled bool
	for i := 0; i < 5; i++ {
		if st := s.Write(0, memsys.Addr(i*32), 8, 0); st > 0 {
			stalled = true
		}
	}
	if !stalled {
		t.Fatal("expected a write stall with a full 4-entry store buffer")
	}
}

func TestRCInvReleaseFlushes(t *testing.T) {
	s := newSys(t, memsys.KindRCInv)
	s.Write(0, 64, 8, 0)
	if fl := s.Release(0, 1); fl == 0 {
		t.Fatal("release with a pending write should flush")
	}
	// Drained: a second release is free.
	if fl := s.Release(0, 1); fl != 0 {
		t.Fatalf("second release stalled %d", fl)
	}
}

func TestRCInvInvalidationCausesConsumerMiss(t *testing.T) {
	s := newSys(t, memsys.KindRCInv)
	now := Time(0)
	now += s.Read(1, 64, 8, now) // P1 caches the line
	if st := s.Read(1, 64, 8, now); st != 0 {
		t.Fatal("P1 should hit before the write")
	}
	s.Write(0, 64, 8, now) // P0 invalidates P1
	now += 10000           // let the ownership complete
	st := s.Read(1, 64, 8, now)
	if st == 0 {
		t.Fatal("P1 must re-miss after invalidation (coherence miss)")
	}
	c := s.Counters()
	if c.Invalidations == 0 {
		t.Fatal("no invalidations counted")
	}
	if c.ColdMisses >= c.ReadMisses {
		t.Fatal("the coherence miss must not count as cold")
	}
}

func TestRCInvDirtyRemoteRead(t *testing.T) {
	s := newSys(t, memsys.KindRCInv)
	s.Write(0, 64, 8, 0)
	// P1 reads while P0 owns the line dirty: forwarded from owner.
	st := s.Read(1, 64, 8, 5000)
	if st == 0 {
		t.Fatal("dirty remote read should stall")
	}
	// Both P0 and P1 now hit.
	if s.Read(0, 64, 8, 20000) != 0 || s.Read(1, 64, 8, 20000) != 0 {
		t.Fatal("owner/reader should hit after downgrade")
	}
}

// --- SCinv ---

func TestSCInvWriteStallsToCompletion(t *testing.T) {
	s := newSys(t, memsys.KindSCInv)
	st := s.Write(0, 64, 8, 0)
	if st == 0 {
		t.Fatal("SC write must stall to global completion")
	}
	if s.Release(0, Time(st)) != 0 {
		t.Fatal("SC release must be free (writes already performed)")
	}
}

func TestSCWriteStallExceedsRC(t *testing.T) {
	sc := newSys(t, memsys.KindSCInv)
	rc := newSys(t, memsys.KindRCInv)
	var scStall, rcStall Time
	for i := 0; i < 3; i++ {
		scStall += sc.Write(0, memsys.Addr(i*32), 8, Time(i*100000))
		rcStall += rc.Write(0, memsys.Addr(i*32), 8, Time(i*100000))
	}
	if scStall <= rcStall {
		t.Fatalf("SC write stall (%d) should exceed RC's (%d)", scStall, rcStall)
	}
}

// --- RCupd ---

func TestRCUpdMergeCombines(t *testing.T) {
	s := newSys(t, memsys.KindRCUpd)
	if st := s.Write(0, 64, 8, 0); st != 0 {
		t.Fatal("first write should buffer in the merge buffer")
	}
	if st := s.Write(0, 72, 8, 1); st != 0 {
		t.Fatal("same-line write should combine")
	}
	if c := s.Counters(); c.WriteMisses != 0 {
		t.Fatalf("no update transaction should have been sent yet, got %d", c.WriteMisses)
	}
	// A write to a different line displaces the merging line.
	s.Write(0, 128, 8, 2)
	if c := s.Counters(); c.WriteMisses != 1 {
		t.Fatalf("displacement should send one update txn, got %d", c.WriteMisses)
	}
}

func TestRCUpdConsumerHitsAfterUpdate(t *testing.T) {
	s := newSys(t, memsys.KindRCUpd)
	now := Time(0)
	now += s.Read(1, 64, 8, now) // P1 becomes a sharer (cold miss)
	s.Write(0, 64, 8, now)       // P0 writes (buffered)
	now += s.Release(0, now)     // flush pushes the update out
	// P1 still hits: the update refreshed its copy instead of invalidating.
	if st := s.Read(1, 64, 8, now+1); st != 0 {
		t.Fatalf("consumer stalled %d after update; update protocols avoid coherence misses", st)
	}
	if c := s.Counters(); c.Updates == 0 {
		t.Fatal("no updates counted")
	}
}

func TestRCUpdReleaseFlushCost(t *testing.T) {
	s := newSys(t, memsys.KindRCUpd)
	s.Write(0, 64, 8, 0)
	if fl := s.Release(0, 1); fl == 0 {
		t.Fatal("merge-buffer flush at release must cost time")
	}
}

func TestRCUpdUselessUpdates(t *testing.T) {
	s := newSys(t, memsys.KindRCUpd)
	now := Time(0)
	now += s.Read(1, 64, 8, now) // P1 shares the line and never reads again
	for i := 0; i < 3; i++ {
		s.Write(0, 64, 8, now)
		now += s.Release(0, now)
		now += 1000
	}
	if c := s.Counters(); c.UselessUpdates == 0 {
		t.Fatal("repeated unread updates must count as useless")
	}
}

// --- RCcomp ---

func TestRCCompSelfInvalidation(t *testing.T) {
	p := memsys.Default(16)
	p.CompThreshold = 2
	s := newSysParams(t, memsys.KindRCComp, p)
	now := Time(0)
	now += s.Read(1, 64, 8, now) // P1 shares
	// Two updates without an intervening P1 read: P1 self-invalidates.
	for i := 0; i < 2; i++ {
		s.Write(0, 64, 8, now)
		now += s.Release(0, now)
		now += 1000
	}
	c := s.Counters()
	if c.SelfInvalidations == 0 {
		t.Fatal("expected competitive self-invalidation")
	}
	if st := s.Read(1, 64, 8, now); st == 0 {
		t.Fatal("P1 must re-miss after self-invalidating")
	}
}

func TestRCCompReadResetsCounter(t *testing.T) {
	p := memsys.Default(16)
	p.CompThreshold = 2
	s := newSysParams(t, memsys.KindRCComp, p)
	now := Time(0)
	now += s.Read(1, 64, 8, now)
	// Alternate write/read: the counter never reaches the threshold.
	for i := 0; i < 5; i++ {
		s.Write(0, 64, 8, now)
		now += s.Release(0, now)
		now += 1000
		if st := s.Read(1, 64, 8, now); st != 0 {
			t.Fatalf("iteration %d: reader with intervening reads must keep hitting (stall %d)", i, st)
		}
	}
	if c := s.Counters(); c.SelfInvalidations != 0 {
		t.Fatal("no self-invalidation expected with intervening reads")
	}
}

// --- RCadapt ---

func TestRCAdaptStablePatternBehavesLikeUpdate(t *testing.T) {
	s := newSys(t, memsys.KindRCAdapt)
	now := Time(0)
	now += s.Read(1, 64, 8, now)
	now += s.Read(2, 64, 8, now)
	for i := 0; i < 4; i++ {
		s.Write(0, 64, 8, now)
		now += s.Release(0, now)
		now += 1000
		if st := s.Read(1, 64, 8, now); st != 0 {
			t.Fatalf("stable sharer stalled %d on iteration %d", st, i)
		}
		if st := s.Read(2, 64, 8, now); st != 0 {
			t.Fatalf("stable sharer 2 stalled %d on iteration %d", st, i)
		}
	}
}

func TestRCAdaptPhaseChangeReinitializes(t *testing.T) {
	s := newSys(t, memsys.KindRCAdapt)
	now := Time(0)
	now += s.Read(1, 64, 8, now) // phase 1 sharer
	s.Write(0, 64, 8, now)       // enters Special with active set {0,1}
	now += s.Release(0, now)
	now += 1000
	// A brand-new reader signals a phase change: the active set is
	// re-initialized (P0, P1 invalidated).
	if st := s.Read(5, 64, 8, now); st == 0 {
		t.Fatal("new reader should miss")
	}
	if c := s.Counters(); c.SelfInvalidations == 0 {
		t.Fatal("phase change must invalidate the old active set")
	}
	now += 10000
	// The old sharer re-misses and rejoins.
	if st := s.Read(1, 64, 8, now); st == 0 {
		t.Fatal("old sharer must re-miss after re-initialization")
	}
}

// --- cross-system metamorphic checks ---

// A simple producer-consumer round: P0 writes a line, releases, consumers
// read it. Update-family systems must not charge the consumers coherence
// misses; the invalidate system must.
func TestUpdateVsInvalidateReuse(t *testing.T) {
	consumerStall := func(kind memsys.Kind) Time {
		s := newSys(t, kind)
		now := Time(0)
		now += s.Read(1, 64, 8, now)
		now += 1000
		var total Time
		for i := 0; i < 5; i++ {
			s.Write(0, 64, 8, now)
			now += s.Release(0, now)
			now += 2000
			st := s.Read(1, 64, 8, now)
			total += st
			now += st + 1000
		}
		return total
	}
	inv := consumerStall(memsys.KindRCInv)
	upd := consumerStall(memsys.KindRCUpd)
	if upd != 0 {
		t.Fatalf("RCupd consumer stall = %d, want 0 (data reuse)", upd)
	}
	if inv == 0 {
		t.Fatal("RCinv consumer must pay coherence misses")
	}
}

// Property: no negative-time arithmetic anywhere — stalls are bounded by a
// sane constant for arbitrary small access sequences on every system.
func TestStallSanityProperty(t *testing.T) {
	for _, kind := range memsys.Kinds() {
		kind := kind
		f := func(ops []uint16) bool {
			s := newSys(t, kind)
			now := Time(0)
			for _, op := range ops {
				p := int(op) % 16
				addr := memsys.Addr(op%512) * 8
				var st Time
				switch (op >> 9) % 3 {
				case 0:
					st = s.Read(p, addr, 8, now)
				case 1:
					st = s.Write(p, addr, 8, now)
				case 2:
					st = s.Release(p, now)
				}
				if st > 1_000_000 {
					return false
				}
				now += st + 1
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

// --- finite cache extension ---

func TestFiniteCacheCapacityMisses(t *testing.T) {
	p := memsys.Default(16)
	p.FiniteCache = true
	p.CacheLines = 4
	p.CacheAssoc = 2
	s := newSysParams(t, memsys.KindRCInv, p)
	now := Time(0)
	// Touch 64 lines, then re-touch the first: it must have been evicted.
	for i := 0; i < 64; i++ {
		now += s.Read(0, memsys.Addr(i*32), 8, now) + 1
	}
	before := s.Counters().ReadMisses
	now += s.Read(0, 0, 8, now)
	if s.Counters().ReadMisses != before+1 {
		t.Fatal("expected a capacity miss on re-touch")
	}
	// And it is not cold: the line was seen before.
	if s.Counters().ColdMisses >= s.Counters().ReadMisses {
		t.Fatal("capacity misses must not be cold")
	}
}

func TestPrefetchReducesStall(t *testing.T) {
	run := func(degree int) Time {
		p := memsys.Default(16)
		p.PrefetchDegree = degree
		s := newSysParams(t, memsys.KindRCInv, p)
		now := Time(0)
		var stall Time
		for i := 0; i < 32; i++ { // sequential cold scan
			st := s.Read(0, memsys.Addr(i*32), 8, now)
			stall += st
			now += st + 200 // compute between misses lets prefetches land
		}
		return stall
	}
	if pf, none := run(4), run(0); pf >= none {
		t.Fatalf("prefetch stall %d should beat no-prefetch %d on a sequential scan", pf, none)
	}
}

func BenchmarkRCInvAccess(b *testing.B) {
	s := newSys(b, memsys.KindRCInv)
	now := Time(0)
	for i := 0; i < b.N; i++ {
		p := i % 16
		addr := memsys.Addr(i%1024) * 8
		if i%3 == 0 {
			now += s.Write(p, addr, 8, now) + 1
		} else {
			now += s.Read(p, addr, 8, now) + 1
		}
	}
}

// --- RCsync (the paper's §6 decoupling proposal) ---

func TestRCSyncNeverFlushes(t *testing.T) {
	s := newSys(t, memsys.KindRCSync)
	for i := 0; i < 8; i++ {
		s.Write(0, memsys.Addr(i*32), 8, Time(i))
	}
	if fl := s.Release(0, 10); fl != 0 {
		t.Fatalf("rcsync release stalled %d; it must never flush", fl)
	}
}

func TestRCSyncWatermarkCoversWrites(t *testing.T) {
	p := memsys.Default(16)
	s := MustNew(memsys.KindRCSync, p, mesh.New(p))
	ts, ok := s.(memsys.TokenSystem)
	if !ok {
		t.Fatal("rcsync must implement TokenSystem")
	}
	// Before any writes the watermark is just now.
	if wm := ts.ReleaseWatermark(0, 42); wm != 42 {
		t.Fatalf("idle watermark = %d, want 42", wm)
	}
	s.Write(0, 64, 8, 100)
	wm := ts.ReleaseWatermark(0, 101)
	if wm <= 101 {
		t.Fatalf("watermark %d must extend past the pending write's issue", wm)
	}
	// After the watermark passes, a fresh release sees nothing pending.
	if wm2 := ts.ReleaseWatermark(0, wm+1); wm2 != wm+1 {
		t.Fatalf("watermark after completion = %d, want now", wm2)
	}
}

func TestRCInvNotTokenSystem(t *testing.T) {
	// Only the decoupled system advertises watermarks... rcinv does expose
	// the method through the shared struct, but must never be constructed
	// as lazy; verify the behavioural distinction instead: rcinv flushes.
	s := newSys(t, memsys.KindRCInv)
	s.Write(0, 64, 8, 0)
	if fl := s.Release(0, 1); fl == 0 {
		t.Fatal("rcinv with a pending write must flush")
	}
}

// --- Dir-i limited-pointer directories (extension E18) ---

func TestDirPointerEviction(t *testing.T) {
	p := memsys.Default(16)
	p.DirPointers = 2
	s := newSysParams(t, memsys.KindRCInv, p)
	now := Time(0)
	// Three readers of the same line: the third displaces the first.
	for proc := 1; proc <= 3; proc++ {
		now += s.Read(proc, 64, 8, now) + 1
	}
	c := s.Counters()
	if c.PointerEvictions == 0 {
		t.Fatal("expected a pointer eviction with Dir-2")
	}
	// The displaced sharer re-misses.
	before := c.ReadMisses
	now += s.Read(1, 64, 8, now)
	if s.Counters().ReadMisses != before+1 {
		t.Fatal("displaced sharer should re-miss")
	}
}

func TestFullMapNoPointerEvictions(t *testing.T) {
	s := newSys(t, memsys.KindRCInv)
	now := Time(0)
	for proc := 0; proc < 16; proc++ {
		now += s.Read(proc, 64, 8, now) + 1
	}
	if c := s.Counters(); c.PointerEvictions != 0 {
		t.Fatalf("full-map directory evicted %d pointers", c.PointerEvictions)
	}
}

func TestDirPointerLimitHolds(t *testing.T) {
	for _, kind := range []memsys.Kind{memsys.KindRCInv, memsys.KindRCUpd} {
		p := memsys.Default(16)
		p.DirPointers = 3
		s := newSysParams(t, kind, p)
		now := Time(0)
		for i := 0; i < 200; i++ {
			proc := i % 16
			addr := memsys.Addr(i%8) * 32
			if i%5 == 0 {
				now += s.Write(proc, addr, 8, now) + 1
				now += s.Release(proc, now) + 1
			} else {
				now += s.Read(proc, addr, 8, now) + 1
			}
		}
		b := baseOf(s)
		b.dir.ForEach(func(line memsys.Addr, e *directory.Entry) {
			if e.Sharers.Count() > 3 {
				t.Fatalf("%s: line %d has %d sharers, limit 3", kind, line, e.Sharers.Count())
			}
		})
	}
}

// --- z-machine oracle modes (§2.2 definition vs §3 simulation) ---

func TestPerfectOraclePerConsumerLatency(t *testing.T) {
	p := memsys.Default(16)
	p.ZOracle = "perfect"
	net := mesh.New(p)
	s := MustNew(memsys.KindZMachine, p, net)
	s.Write(0, 100, 4, 1000)
	// A neighbour (node 1, one hop) waits less than the far corner (15).
	near := s.Read(1, 100, 4, 1000)
	far := s.Read(15, 100, 4, 1000)
	if near >= far {
		t.Fatalf("near stall %d should be below far stall %d", near, far)
	}
	if near != net.UncontendedLatency(0, 1, p.ZLineSize) {
		t.Fatalf("near stall %d != per-consumer latency %d", near, net.UncontendedLatency(0, 1, p.ZLineSize))
	}
}

// TestZLineSize pins the z-machine's writer record at 24 bytes on 64-bit
// hosts: it holds the availability time with no directory slot beside it.
func TestZLineSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("slot sizes are pinned for 64-bit hosts")
	}
	if n := unsafe.Sizeof(zline{}); n != 24 {
		t.Fatalf("zline is %d bytes, want 24", n)
	}
}

// The perfect oracle keeps the counter's rule that a read waits for every
// outstanding write: a consumer of a line rewritten before the previous
// write has landed waits for the earlier, farther write too, not only for
// its own flight time from the latest writer.
func TestPerfectOracleCarriesOutstandingWrite(t *testing.T) {
	p := memsys.Default(16)
	p.ZOracle = "perfect"
	net := mesh.New(p)
	s := MustNew(memsys.KindZMachine, p, net)
	s.Write(15, 100, 4, 1000)
	s.Write(0, 100, 4, 1001)
	want := 1000 + net.MaxUncontendedLatency(15, p.ZLineSize) - 1001
	own := net.UncontendedLatency(0, 1, p.ZLineSize)
	if want <= own {
		t.Fatalf("setup: carried wait %d does not exceed the reader's own latency %d", want, own)
	}
	if st := s.Read(1, 100, 4, 1001); st != want {
		t.Fatalf("read stall = %d, want %d (the outstanding write from node 15)", st, want)
	}
}

// The perfect oracle never charges more than the broadcast counter: it is
// the tighter of the two lower bounds.
func TestPerfectOracleTighterBound(t *testing.T) {
	mk := func(mode string) memsys.MemSystem {
		p := memsys.Default(16)
		p.ZOracle = mode
		return MustNew(memsys.KindZMachine, p, mesh.New(p))
	}
	b, pf := mk("broadcast"), mk("perfect")
	now := Time(0)
	for i := 0; i < 500; i++ {
		w := i % 16
		r := (i * 7) % 16
		addr := memsys.Addr(i%32) * 4
		b.Write(w, addr, 4, now)
		pf.Write(w, addr, 4, now)
		sb := b.Read(r, addr, 4, now+1)
		sp := pf.Read(r, addr, 4, now+1)
		if sp > sb {
			t.Fatalf("step %d: perfect stall %d exceeds broadcast %d", i, sp, sb)
		}
		now += 3
	}
}

func TestUnknownZOracleRejected(t *testing.T) {
	p := memsys.Default(16)
	p.ZOracle = "psychic"
	if err := p.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestEvictionClearsPresenceBeforeUpdate: a finite cache's eviction sends
// a replacement hint that clears the evicted node's presence bit, so a
// later update fan-out never reaches a node without a copy.
func TestEvictionClearsPresenceBeforeUpdate(t *testing.T) {
	p := memsys.Default(16)
	p.FiniteCache = true
	p.CacheLines = 2
	p.CacheAssoc = 1
	s := newSysParams(t, memsys.KindRCUpd, p)
	b := baseOf(s)
	now := Time(0)
	now += s.Read(1, 64, 8, now) + 1 // P1 shares line 2 (addr 64)
	// Line 4 maps to the same set of P1's direct-mapped cache (2 sets: even
	// lines collide), so reading it evicts line 2.
	now += s.Read(1, 128, 8, now) + 1
	if _, cached := b.caches[1].Lookup(2); cached {
		t.Fatal("P1 still caches line 2 after a conflicting read")
	}
	if e := b.dir.Entry(64); e.Sharers.Has(1) {
		t.Fatalf("evicted P1 is still listed as a sharer: %v", e)
	}
	before := s.Counters().Updates
	s.Write(0, 64, 8, now)
	now += s.Release(0, now) // the merge buffer flushes line 2's update txn
	if got := s.Counters().Updates; got != before {
		t.Fatalf("the update txn sent %d updates, want none: line 2 has no other sharer", got-before)
	}
	if e := b.dir.Entry(64); !e.Sharers.Has(0) || e.Sharers.Count() != 1 {
		t.Fatalf("after P0's update txn the entry is %v, want P0 as the only sharer", e)
	}
}

// TestUpdatePanicsOnPresenceWithoutCopy: a presence bit with no resident
// copy behind it is a protocol bug, which an update fan-out reports with a
// panic naming the line and the node.
func TestUpdatePanicsOnPresenceWithoutCopy(t *testing.T) {
	s := newSys(t, memsys.KindRCUpd)
	b := baseOf(s)
	now := s.Read(1, 64, 8, 0) + 1 // P1 shares line 2 (addr 64)
	b.dir.Entry(64).Sharers.Add(5) // a presence bit without a copy
	s.Write(0, 64, 8, now)
	defer func() {
		want := "line 0x2: presence bit for node 5 without a resident copy"
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("recovered %v, want a panic containing %q", r, want)
		}
	}()
	s.Release(0, now)
}
