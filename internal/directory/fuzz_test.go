package directory

import (
	"testing"

	"zsim/internal/memsys"
)

// FuzzBitset: the bitset agrees with a reference map under arbitrary
// add/remove sequences (first-word ids only — the pre-multi-word corpus
// stays valid; FuzzBitsetWide covers the full id range).
func FuzzBitset(f *testing.F) {
	f.Add([]byte{0x81, 0x02, 0x83})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var b Bitset
		ref := map[int]bool{}
		for _, op := range ops {
			p := int(op % 64)
			if op&0x80 != 0 {
				b.Add(p)
				ref[p] = true
			} else {
				b.Remove(p)
				delete(ref, p)
			}
		}
		if b.Count() != len(ref) {
			t.Fatalf("count %d != %d", b.Count(), len(ref))
		}
		prev := -1
		for _, p := range b.AppendTo(nil) {
			if !ref[p] {
				t.Fatalf("phantom member %d", p)
			}
			if p <= prev {
				t.Fatalf("AppendTo order violated: %d after %d", p, prev)
			}
			prev = p
		}
	})
}

// FuzzBitsetWide: the multi-word bitset agrees with a reference map across
// the full processor-id range. Each op is two bytes: the high bit of the
// first selects add/remove, the remaining 15 bits pick an id modulo
// MaxProcs — so sequences constantly cross 64-bit word boundaries. Seeds
// pin the boundary widths 1, 65, 129, and 1024 (ids 0, 64, 128, 1023).
func FuzzBitsetWide(f *testing.F) {
	f.Add([]byte{0x80, 0x00})                                     // width 1: id 0
	f.Add([]byte{0x80, 0x40, 0x80, 0x3f, 0x00, 0x40})             // width 65: ids 63/64 across the first boundary
	f.Add([]byte{0x80, 0x80, 0x80, 0x7f, 0x00, 0x80})             // width 129: ids 127/128
	f.Add([]byte{0x83, 0xff, 0x80, 0x00, 0x03, 0xff})             // width 1024: id 1023 add/remove
	f.Add([]byte{0x80, 0x3f, 0x80, 0x40, 0x80, 0x41, 0x00, 0x40}) // straddle 63/64/65
	f.Fuzz(func(t *testing.T, ops []byte) {
		var b Bitset
		ref := map[int]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			p := (int(ops[i]&0x7f)<<8 | int(ops[i+1])) % memsys.MaxProcs
			if ops[i]&0x80 != 0 {
				b.Add(p)
				ref[p] = true
			} else {
				b.Remove(p)
				delete(ref, p)
			}
		}
		if b.Count() != len(ref) {
			t.Fatalf("count %d != %d", b.Count(), len(ref))
		}
		prev := -1
		for _, p := range b.AppendTo(nil) {
			if !ref[p] {
				t.Fatalf("phantom member %d", p)
			}
			if p <= prev {
				t.Fatalf("AppendTo order violated: %d after %d", p, prev)
			}
			prev = p
		}
		for p := range ref {
			if !b.Has(p) {
				t.Fatalf("lost member %d", p)
			}
		}
	})
}
