package rh

import (
	"math"
	"testing"

	"repro/internal/proptest"
)

// livePages counts the materialized pages of a table.
func livePages(t *RowTable[uint16]) int {
	n := 0
	for _, pg := range t.pages {
		if pg.c != nil {
			n++
		}
	}
	return n
}

// rowTableProp drives a RowTable and a flat slice through the same
// generated operations; they must agree on every row after every step,
// and Each must visit exactly the nonzero rows, in ascending order.
// Row counts that are not a multiple of the page size put a partial
// page at the end.
func rowTableProp(t *proptest.T) {
	rows := proptest.SampledFrom([]int{1, 1000, 1024, 1025, 3000, 4097}).Draw(t, "rows")
	tab := NewRowTable[uint16](rows)
	ref := make([]uint16, rows)
	row := func(t *proptest.T) uint32 {
		return uint32(proptest.IntRange(0, rows-1).Draw(t, "row"))
	}
	// Values near the top of the range make Ref increments wrap.
	val := proptest.SampledFrom([]uint16{0, 1, 2, 7, math.MaxUint16})

	proptest.Repeat(t, map[string]func(*proptest.T){
		"": func(t *proptest.T) {
			pages := livePages(tab)
			for r := range ref {
				if got := tab.Get(uint32(r)); got != ref[r] {
					t.Fatalf("Get(%d) = %d, want %d", r, got, ref[r])
				}
			}
			if livePages(tab) != pages {
				t.Fatalf("Get materialized a page")
			}
			next := 0
			tab.Each(func(r uint32, v uint16) {
				for next < int(r) {
					if ref[next] != 0 {
						t.Fatalf("Each skipped row %d (%d)", next, ref[next])
					}
					next++
				}
				if int(r) != next || v == 0 || v != ref[r] {
					t.Fatalf("Each visited row %d = %d, expected row %d = %d", r, v, next, ref[next])
				}
				next++
			})
			for ; next < rows; next++ {
				if ref[next] != 0 {
					t.Fatalf("Each skipped row %d (%d)", next, ref[next])
				}
			}
		},
		"get": func(t *proptest.T) {
			r := row(t)
			if got := tab.Get(r); got != ref[r] {
				t.Fatalf("Get(%d) = %d, want %d", r, got, ref[r])
			}
		},
		"ref-inc": func(t *proptest.T) {
			r := row(t)
			for n := proptest.IntRange(1, 3).Draw(t, "n"); n > 0; n-- {
				*tab.Ref(r)++
				ref[r]++
			}
		},
		"set": func(t *proptest.T) {
			r, v := row(t), val.Draw(t, "v")
			tab.Set(r, v)
			ref[r] = v
		},
		"fill": func(t *proptest.T) {
			lo := proptest.IntRange(0, rows).Draw(t, "lo")
			hi := proptest.IntRange(lo, rows).Draw(t, "hi")
			v := val.Draw(t, "v")
			tab.Fill(lo, hi, v)
			for i := lo; i < hi; i++ {
				ref[i] = v
			}
		},
		"clear": func(t *proptest.T) {
			tab.Clear()
			clear(ref)
		},
		// Zero every k-th visited counter from inside Each, the way a
		// corruption sweep does.
		"each-set": func(t *proptest.T) {
			k := proptest.IntRange(1, 3).Draw(t, "k")
			i := 0
			tab.Each(func(r uint32, _ uint16) {
				if i%k == 0 {
					tab.Set(r, 0)
					ref[r] = 0
				}
				i++
			})
		},
	})
}

// TestRowTableMachine is the RowTable ≡ flat slice machine
// (docs/TESTING.md).
func TestRowTableMachine(t *testing.T) {
	proptest.Check(t, rowTableProp)
}
