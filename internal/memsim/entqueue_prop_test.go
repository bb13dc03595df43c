package memsim

// Property-based equivalence for entQueue, the ring-plus-fallback-heap
// index behind each queue's future and aging sets: a generated
// interleaving of pushes and pops must pop exactly what a plain entHeap
// pops, entry for entry, and agree on len and front after every step.

import (
	"testing"

	"repro/internal/proptest"
)

func entQueueProp(t *proptest.T) {
	var (
		q     entQueue
		ref   entHeap
		last  int64 // key of the newest in-order push
		stamp int64 // last stamp handed out; stamps stay unique
	)
	// Every entry points at the same request so the invariant can tell
	// a released ring slot (nil) from a live one.
	r := &Request{}
	push := func(key, s int64) {
		e := heapEnt{r, key, s}
		q.push(e)
		ref.push(e)
	}
	pop := func(t *proptest.T) {
		if len(ref) == 0 {
			return
		}
		got, want := q.pop(), ref.pop()
		if got != want {
			t.Fatalf("pop = (%d, %d), heap pops (%d, %d)", got.key, got.stamp, want.key, want.stamp)
		}
	}
	proptest.Repeat(t, map[string]func(*proptest.T){
		"": func(t *proptest.T) {
			if q.len() != len(ref) {
				t.Fatalf("len = %d, heap holds %d", q.len(), len(ref))
			}
			if len(ref) > 0 && q.front() != ref[0] {
				t.Fatalf("front = %+v, heap top %+v", q.front(), ref[0])
			}
			// The ring holds n sorted entries from head, wrapping, and
			// every other slot is released.
			for i := range q.ring {
				off := (i - q.head + len(q.ring)) % len(q.ring)
				if live := off < q.n; live != (q.ring[i].r != nil) {
					t.Fatalf("ring slot %d (head %d, n %d): holds a request = %v", i, q.head, q.n, !live)
				}
				if off > 0 && off < q.n && entLess(q.ring[i], q.ring[(i-1+len(q.ring))%len(q.ring)]) {
					t.Fatalf("ring unsorted at slot %d", i)
				}
			}
		},
		// Mostly monotone traffic: the next key at or after the last.
		"push-monotone": func(t *proptest.T) {
			last += int64(proptest.IntRange(0, 4).Draw(t, "step"))
			stamp++
			push(last, stamp)
		},
		// A burst of in-order entries, enough to fill and grow the
		// ring, wrapped around or not.
		"push-burst": func(t *proptest.T) {
			for n := proptest.IntRange(1, 3*minRing).Draw(t, "n"); n > 0; n-- {
				last += int64(proptest.IntRange(0, 4).Draw(t, "step"))
				stamp++
				push(last, stamp)
			}
		},
		// An out-of-order entry: a key behind the newest.
		"push-late": func(t *proptest.T) {
			stamp++
			push(last-int64(proptest.IntRange(1, 64).Draw(t, "lag")), stamp)
		},
		// Equal keys, tie-broken by stamp on either side of the tail:
		// a fresh (higher) stamp appends, a lower one must not.
		"push-equal": func(t *proptest.T) {
			stamp++
			s := stamp
			if proptest.Bool().Draw(t, "lower") {
				s = -stamp
			}
			push(last, s)
		},
		"pop": pop,
		// Drain to empty, so the next pushes refill a reset ring.
		"pop-all": func(t *proptest.T) {
			for len(ref) > 0 {
				pop(t)
			}
		},
	})
}

// TestEntQueueMachine is the entQueue ≡ entHeap machine
// (docs/TESTING.md).
func TestEntQueueMachine(t *testing.T) {
	proptest.Check(t, entQueueProp)
}
