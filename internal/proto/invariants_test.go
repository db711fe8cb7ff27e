package proto

// White-box coherence invariant checking: after an arbitrary (data-race-
// free at the protocol level — the simulator serializes operations) access
// sequence, the directory state and the cache states must agree. These are
// the safety properties the overhead numbers stand on: a protocol that
// miscounts sharers produces garbage stall decompositions without failing
// any application test, so they get their own property tests.

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"zsim/internal/cache"
	"zsim/internal/memsys"
	"zsim/internal/mesh"
)

// checkCoherence validates directory/cache agreement for one base-hardware
// system via the audit the conformance checker uses at runtime.
func checkCoherence(t *testing.T, b *base, kind memsys.Kind) {
	t.Helper()
	if vs := b.AuditConformance(); len(vs) > 0 {
		t.Fatalf("%s: %d coherence invariant violations, first: %s", kind, len(vs), vs[0])
	}
}

// baseOf extracts the base hardware from a system built in this package.
func baseOf(s memsys.MemSystem) *base {
	switch v := s.(type) {
	case *inv:
		return &v.base
	case *upd:
		return &v.base
	}
	return nil
}

func TestCoherenceInvariantsUnderRandomTraffic(t *testing.T) {
	kinds := []memsys.Kind{memsys.KindRCInv, memsys.KindSCInv, memsys.KindRCUpd, memsys.KindRCComp, memsys.KindRCAdapt}
	for _, kind := range kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			p := memsys.Default(16)
			s := MustNew(kind, p, mesh.New(p))
			b := baseOf(s)
			if b == nil {
				t.Fatal("system does not expose base hardware")
			}
			rng := rand.New(rand.NewSource(42))
			now := Time(0)
			for i := 0; i < 5000; i++ {
				proc := rng.Intn(16)
				addr := memsys.Addr(rng.Intn(64)) * 8 // 16 lines, heavy sharing
				switch rng.Intn(4) {
				case 0, 1:
					now += s.Read(proc, addr, 8, now) + 1
				case 2:
					now += s.Write(proc, addr, 8, now) + 1
				case 3:
					now += s.Release(proc, now) + 1
				}
				if i%500 == 0 {
					checkCoherence(t, b, kind)
				}
			}
			// Drain all buffers, then do a final full check.
			for proc := 0; proc < 16; proc++ {
				now += s.Release(proc, now)
			}
			checkCoherence(t, b, kind)
		})
	}
}

// The same invariants must hold with finite caches (evictions update the
// directory) and with hardware multithreading (streams share node caches).
func TestCoherenceInvariantsFiniteAndMT(t *testing.T) {
	configs := []struct {
		name string
		p    memsys.Params
	}{
		{"finite", func() memsys.Params {
			p := memsys.Default(16)
			p.FiniteCache = true
			p.CacheLines = 8
			p.CacheAssoc = 2
			return p
		}()},
		{"mt", memsys.DefaultMT(16, 4)},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for _, kind := range []memsys.Kind{memsys.KindRCInv, memsys.KindRCUpd} {
				s := MustNew(kind, cfg.p, mesh.New(cfg.p))
				b := baseOf(s)
				rng := rand.New(rand.NewSource(7))
				now := Time(0)
				for i := 0; i < 3000; i++ {
					proc := rng.Intn(16)
					addr := memsys.Addr(rng.Intn(128)) * 8
					switch rng.Intn(4) {
					case 0, 1:
						now += s.Read(proc, addr, 8, now) + 1
					case 2:
						now += s.Write(proc, addr, 8, now) + 1
					case 3:
						now += s.Release(proc, now) + 1
					}
				}
				for proc := 0; proc < 16; proc++ {
					now += s.Release(proc, now)
				}
				checkCoherence(t, b, kind)
			}
		})
	}
}

// The audit must flag the deliberately seeded protocol defects: a lost update
// leaves a stale copy behind; a lost invalidation leaves an unaccounted copy.
func TestAuditDetectsInjectedFaults(t *testing.T) {
	cases := []struct {
		kind  memsys.Kind
		fault string
		want  string
	}{
		{memsys.KindRCUpd, "drop-update", "stale copy"},
		{memsys.KindRCInv, "drop-inval", "line 0x"}, // the directory sweep's, not the copy table's "lines 0x"
	}
	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.kind)+"/"+tc.fault, func(t *testing.T) {
			p := memsys.Default(8)
			p.FaultInjection = tc.fault
			s := MustNew(tc.kind, p, mesh.New(p))
			b := baseOf(s)
			rng := rand.New(rand.NewSource(3))
			now := Time(0)
			caught := false
			for i := 0; i < 2000 && !caught; i++ {
				proc := rng.Intn(8)
				addr := memsys.Addr(rng.Intn(32)) * 8
				switch rng.Intn(4) {
				case 0, 1:
					now += s.Read(proc, addr, 8, now) + 1
				case 2:
					now += s.Write(proc, addr, 8, now) + 1
				case 3:
					now += s.Release(proc, now) + 1
				}
				for _, v := range b.AuditConformance() {
					if strings.Contains(v, tc.want) {
						caught = true
					}
				}
			}
			if !caught {
				t.Fatalf("%s with %s: audit never reported a violation containing %q", tc.kind, tc.fault, tc.want)
			}
		})
	}
}

// TestInvalidationPathsGiveTilesBack drives each path that invalidates a
// copy at 64 processors: RCinv's fan-out and ownership transfer, RCcomp's
// self-invalidation, RCadapt's re-initialization and a Dir-2 pointer
// eviction. The victim, node 20, is the only holder of its copy-table tile
// (nodes 16–31 × lines 0–7), so the table must give the tile back, which
// Copies.At shows as nil, and the audit, which checks the table's counts,
// must stay clean, also once the victim has read the line again.
func TestInvalidationPathsGiveTilesBack(t *testing.T) {
	const victim, addr, line = 20, 64, 2
	read := func(s memsys.MemSystem, p int, now Time) Time { return now + s.Read(p, addr, 8, now) + 1 }
	write := func(s memsys.MemSystem, p int, now Time) Time {
		now += s.Write(p, addr, 8, now) + 1
		return now + s.Release(p, now) + 1
	}
	for _, tc := range []struct {
		name        string
		kind        memsys.Kind
		dirPointers int
		run         func(s memsys.MemSystem) Time
	}{
		{"rcinv-fan-out", memsys.KindRCInv, 0, func(s memsys.MemSystem) Time {
			return write(s, 0, read(s, victim, 0))
		}},
		{"rcinv-ownership-transfer", memsys.KindRCInv, 0, func(s memsys.MemSystem) Time {
			return write(s, 0, write(s, victim, 0))
		}},
		{"rccomp-self-invalidation", memsys.KindRCComp, 0, func(s memsys.MemSystem) Time {
			return unreadUpdates(s, memsys.Default(64).CompThreshold, read(s, victim, 0))
		}},
		{"rcadapt-re-initialization", memsys.KindRCAdapt, 0, func(s memsys.MemSystem) Time {
			return read(s, 40, write(s, 0, read(s, victim, 0)))
		}},
		{"dir-2-pointer-eviction", memsys.KindRCInv, 2, func(s memsys.MemSystem) Time {
			return read(s, 50, read(s, 40, read(s, victim, 0)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := memsys.Default(64)
			p.DirPointers = tc.dirPointers
			s := MustNew(tc.kind, p, mesh.New(p))
			b := baseOf(s)
			now := tc.run(s)
			if l := b.copies.Copies(line).At(victim); l != nil {
				t.Fatalf("node %d's tile was not given back: its copy is %+v", victim, *l)
			}
			checkCoherence(t, b, tc.kind)
			read(s, victim, now)
			if l := b.copies.Copies(line).At(victim); l == nil || l.State == cache.Invalid {
				t.Fatalf("node %d's re-read left no copy", victim)
			}
			checkCoherence(t, b, tc.kind)
		})
	}
}

// TestAuditReportsCopyTableBookkeeping: a copy made Invalid by a direct
// write, past the copy table, leaves its tile counted but empty, and the
// audit says so.
func TestAuditReportsCopyTableBookkeeping(t *testing.T) {
	p := memsys.Default(64)
	s := MustNew(memsys.KindRCInv, p, mesh.New(p))
	b := baseOf(s)
	s.Read(20, 64, 8, 0)
	l, _ := b.caches[20].Lookup(2)
	l.State = cache.Invalid
	b.dir.Entry(64).Sharers.Remove(20)
	want := []string{"copy table: tile of lines 0x0-0x7, nodes 16-31: count 1, valid slots 0"}
	if got := b.AuditConformance(); !slices.Equal(got, want) {
		t.Fatalf("audit:\n%q\nwant\n%q", got, want)
	}
}
