package proto

import (
	"fmt"
	"sort"

	"zsim/internal/cache"
	"zsim/internal/directory"
	"zsim/internal/memsys"
)

// AuditConformance sweeps the directory and every private cache and returns a
// description of each violated coherence invariant (empty when the machine
// state is consistent). It implements the check.Auditable contract for the
// CC-NUMA base-hardware systems (the inv and upd families); the z-machine and
// PRAM have no caches to audit.
//
// Invariants checked, per allocated directory entry:
//
//   - at most one Modified copy exists, and only when the entry is Dirty with
//     a matching owner;
//   - every cached copy's holder appears in the sharer set, and (conversely)
//     every presence bit corresponds to a resident copy;
//   - Uncached entries have no copies;
//   - every valid copy carries the entry's current version — a trailing
//     version is a stale copy (a lost invalidation or update).
func (b *base) AuditConformance() []string {
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}

	copies := map[memsys.Addr][]copyInfo{}
	for n, c := range b.caches {
		c.ForEach(func(line memsys.Addr, l *cache.Line) {
			copies[line] = append(copies[line], copyInfo{node: n, state: l.State, ver: l.Version})
		})
	}

	var sharers []int
	b.dir.ForEach(func(line memsys.Addr, e *directory.Entry) {
		held := copies[line]
		modified := 0
		for _, ci := range held {
			if ci.state == cache.Modified {
				modified++
				if e.State != directory.Dirty || int(e.Owner) != ci.node {
					fail("line %#x: node %d holds a Modified copy but directory is %v", line, ci.node, e)
				}
			}
			if !e.Sharers.Has(ci.node) {
				fail("line %#x: node %d holds a copy without a presence bit (directory %v)", line, ci.node, e)
			}
			if uint64(ci.ver) != e.Version {
				fail("line %#x: node %d holds a stale copy (copy v%d, directory v%d)", line, ci.node, ci.ver, e.Version)
			}
		}
		if modified > 1 {
			fail("line %#x: %d Modified copies (single-writer violated)", line, modified)
		}
		switch e.State {
		case directory.Dirty:
			if len(held) != 1 || held[0].node != int(e.Owner) || held[0].state != cache.Modified {
				fail("line %#x: Dirty entry %v but copies %v", line, e, describeCopies(held))
			}
		case directory.SharedClean, directory.Special:
			if modified != 0 {
				fail("line %#x: %v entry with a Modified copy", line, e.State)
			}
			sharers = e.Sharers.AppendTo(sharers[:0])
			for _, s := range sharers {
				if !hasCopy(held, s) {
					fail("line %#x: presence bit for node %d without a resident copy (%v)", line, s, e)
				}
			}
		case directory.Uncached:
			if len(held) != 0 {
				fail("line %#x: Uncached entry but copies %v", line, describeCopies(held))
			}
		}
		delete(copies, line)
	})

	// Copies of lines the directory has never allocated an entry for cannot
	// exist: every fill goes through the directory. Report them in address
	// order so the audit transcript is deterministic.
	orphans := make([]memsys.Addr, 0, len(copies))
	for line := range copies {
		orphans = append(orphans, line)
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	for _, line := range orphans {
		fail("line %#x: copies %v with no directory entry", line, describeCopies(copies[line]))
	}
	return out
}

// copyInfo is one resident cached copy observed during an audit sweep.
type copyInfo struct {
	node  int
	state cache.State
	ver   uint32
}

func hasCopy(held []copyInfo, n int) bool {
	for _, ci := range held {
		if ci.node == n {
			return true
		}
	}
	return false
}

func describeCopies(held []copyInfo) string {
	s := "["
	for i, ci := range held {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("n%d:%v/v%d", ci.node, ci.state, ci.ver)
	}
	return s + "]"
}

// CopyVersion returns the version held by node's cached copy of the line
// containing addr alongside the directory's current version, with
// cached=false when the node holds no copy. The conformance checker calls it
// after every shared read to detect a read satisfied from a stale copy.
func (b *base) CopyVersion(node int, addr memsys.Addr) (copy, current uint64, cached bool) {
	line := b.line(addr)
	l, ok := b.caches[node].Lookup(line)
	if !ok {
		return 0, 0, false
	}
	e, ok := b.dir.Lookup(addr)
	if !ok {
		return uint64(l.Version), uint64(l.Version), true
	}
	return uint64(l.Version), e.Version, true
}
