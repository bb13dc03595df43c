package memsim

// This file holds the incrementally maintained per-queue index that
// replaced the original scheduler's per-step linear scans. Each
// scheduling class (mitigation, read, metadata, write) keeps:
//
//   - future: a min-heap of not-yet-arrived requests keyed by Arrive,
//     so the channel's next-arrival time is the heap top instead of a
//     scan over every queued request;
//   - buckets: the arrived requests grouped per bank in submission
//     (seq) order, so FR-FCFS considers one candidate per bank — the
//     cached oldest row-hit, or the bucket front for a row conflict —
//     instead of estimating every request;
//   - aging/starving: two lazy-deleted heaps that surface the
//     oldest-submitted request past starvationAge exactly, without
//     depending on slice order.
//
// Requests are removed by tombstoning their bucket slot (Request.qpos
// is the slot index, kept stable until compaction), which replaces the
// old O(n) memmove removal. Heap entries carry the seq the request had
// when the entry was pushed; a served request has its seq reset to -1,
// so stale entries are detected and discarded when they surface.

// heapEnt is one entry of a lazily-deleted request heap. key is the
// ordering key (Arrive or seq); stamp is the request's seq at push
// time, compared against the live seq to detect served requests.
type heapEnt struct {
	r     *Request
	key   int64
	stamp int64
}

// entHeap is a binary min-heap by (key, stamp). The stamp tie-break
// makes pops deterministic and, for the future heap, promotes
// same-cycle arrivals in submission order — which keeps each bank
// bucket sorted by seq, an invariant FR-FCFS tie-breaking relies on.
// The heap is hand-rolled (rather than container/heap) so pushes and
// pops stay free of interface conversions and allocations on the
// scheduler hot path.
type entHeap []heapEnt

func entLess(a, b heapEnt) bool {
	return a.key < b.key || (a.key == b.key && a.stamp < b.stamp)
}

func (h *entHeap) push(e heapEnt) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entLess(s[i], s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *entHeap) pop() heapEnt {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = heapEnt{} // release the request pointer
	*h = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && entLess(s[r], s[l]) {
			l = r
		}
		if !entLess(s[l], s[i]) {
			break
		}
		s[i], s[l] = s[l], s[i]
		i = l
	}
	return top
}

// bucket holds the arrived requests of one (queue, bank) pair in
// submission (seq) order. Serving a request nils its slot; front skips
// the dead prefix lazily and the slice compacts once it is mostly dead,
// so both the FIFO head and arbitrary middle removals are O(1)
// amortized. Inserts are appends except when arrival timestamps run
// backward (out-of-order submitters such as the throttle policy's
// future-dated rate limiting): the future heap promotes in Arrive
// order, so a late-submitted-but-early-arriving request can reach the
// bucket before an older one, and the older request is then bubbled
// into seq position — the ordering FR-FCFS and FCFS tie-breaks rely on.
type bucket struct {
	items []*Request
	head  int // first possibly-live index; items[:head] are all nil
	live  int

	// bestHit caches the oldest request targeting the bank's open row
	// (nil when cached as "no hit"). It is invalidated when the bank's
	// open row changes or the cached request is served.
	bestHit  *Request
	hitValid bool
}

func (b *bucket) push(r *Request, openRow int) {
	// Trim the dead suffix first so the append lands directly after
	// the last live request. Amortized O(1) — every trimmed slot was
	// appended exactly once — and it keeps the serve-newest-then-push
	// cycle from walking an ever-growing nil tail.
	for n := len(b.items); n > b.head && b.items[n-1] == nil; n-- {
		b.items = b.items[:n-1]
	}
	i := len(b.items)
	r.qpos = int32(i)
	b.items = append(b.items, r)
	b.live++
	// Bubble past any live request with a greater seq (and the dead
	// slots between), restoring seq order after an out-of-order
	// promotion. For monotonic traffic the loop breaks immediately on
	// the preceding live request.
	for i > b.head {
		p := b.items[i-1]
		if p != nil && p.seq < r.seq {
			break
		}
		b.items[i-1], b.items[i] = r, p
		if p != nil {
			p.qpos = int32(i)
		}
		r.qpos = int32(i - 1)
		i--
	}
	// Maintain the cached best hit: a new request upgrades a cached
	// "no hit", and an out-of-order one can be older than the cached
	// hit itself.
	if b.hitValid && r.loc.Row == openRow &&
		(b.bestHit == nil || r.seq < b.bestHit.seq) {
		b.bestHit = r
	}
}

func (b *bucket) remove(r *Request) {
	b.items[r.qpos] = nil
	b.live--
	if b.bestHit == r {
		b.invalidateHit()
	}
	if dead := len(b.items) - b.head - b.live; dead >= 32 && dead > 3*b.live {
		b.compact()
	}
}

func (b *bucket) invalidateHit() {
	b.bestHit = nil
	b.hitValid = false
}

// front returns the oldest live request, or nil for an empty bucket.
func (b *bucket) front() *Request {
	for b.head < len(b.items) && b.items[b.head] == nil {
		b.head++
	}
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
		return nil
	}
	return b.items[b.head]
}

// bestHitFor returns the oldest live request whose row matches
// openRow, caching the answer until the open row changes.
func (b *bucket) bestHitFor(openRow int) *Request {
	if !b.hitValid {
		b.bestHit = nil
		if openRow >= 0 {
			for i := b.head; i < len(b.items); i++ {
				if r := b.items[i]; r != nil && r.loc.Row == openRow {
					b.bestHit = r
					break
				}
			}
		}
		b.hitValid = true
	}
	return b.bestHit
}

// compact rewrites the live requests to the front of the slice,
// updating their qpos. Request pointers are stable, so cached bestHit
// entries survive.
func (b *bucket) compact() {
	w := 0
	for i := b.head; i < len(b.items); i++ {
		if r := b.items[i]; r != nil {
			b.items[w] = r
			r.qpos = int32(w)
			w++
		}
	}
	for i := w; i < len(b.items); i++ {
		b.items[i] = nil
	}
	b.items = b.items[:w]
	b.head = 0
}

// reqQueue is one scheduling class of a channel.
type reqQueue struct {
	future  entHeap  // Arrive > channel clock, min-heap by Arrive
	buckets []bucket // arrived requests, per bank
	readyN  int      // total live requests across buckets

	// starve enables the starvation index (FR-FCFS queues only; the
	// mitigation queue is served strictly oldest-first already).
	starve   bool
	aging    entHeap // arrived requests by Arrive, pending the age bound
	starving entHeap // requests past starvationAge, by seq
}

func (q *reqQueue) init(nBanks int, starve bool) {
	q.buckets = make([]bucket, nBanks)
	q.starve = starve
}

// len counts every queued request, arrived or not (queue-capacity and
// drain-hysteresis checks use the total, as the linear queues did).
func (q *reqQueue) len() int { return len(q.future) + q.readyN }

// add accepts a freshly submitted request. now is the channel clock:
// requests arriving in the past or present index as ready immediately.
func (q *reqQueue) add(r *Request, bank, openRow int, now int64) {
	if r.Arrive > now {
		q.future.push(heapEnt{r, r.Arrive, r.seq})
		return
	}
	q.insertReady(r, bank, openRow)
}

func (q *reqQueue) insertReady(r *Request, bank, openRow int) {
	q.buckets[bank].push(r, openRow)
	q.readyN++
	if q.starve {
		q.aging.push(heapEnt{r, r.Arrive, r.seq})
	}
}

// remove takes a picked request out of its bucket and stamps it
// served, which lazily deletes any aging/starving heap entries. A
// pooled request may recycle and resubmit to another channel while
// this channel's lazy heaps still hold the old pointer; seqs are never
// reused, so its new seq can never equal a stale entry's stamp.
func (q *reqQueue) remove(r *Request, bank int) {
	q.buckets[bank].remove(r)
	q.readyN--
	r.seq = -1
}

// earliestFuture returns the arrival time of the next not-yet-arrived
// request, or Infinity.
func (q *reqQueue) earliestFuture() int64 {
	if len(q.future) == 0 {
		return Infinity
	}
	return q.future[0].key
}

// oldestReady returns the lowest-seq arrived request (the mitigation
// queue's FCFS order), or nil.
func (q *reqQueue) oldestReady() *Request {
	var best *Request
	for b := range q.buckets {
		bk := &q.buckets[b]
		if bk.live == 0 {
			continue
		}
		if r := bk.front(); best == nil || r.seq < best.seq {
			best = r
		}
	}
	return best
}

// starvingPick returns the lowest-seq arrived request whose age
// exceeds starvationAge, or nil. Requests migrate from the aging heap
// (keyed by Arrive) into the starving heap (keyed by seq) as the
// threshold passes them; served requests are discarded lazily by the
// stamp check.
func (q *reqQueue) starvingPick(now int64) *Request {
	th := now - starvationAge
	for len(q.aging) > 0 && q.aging[0].key < th {
		if e := q.aging.pop(); e.r.seq == e.stamp {
			q.starving.push(heapEnt{e.r, e.stamp, e.stamp})
		}
	}
	for len(q.starving) > 0 {
		if e := q.starving[0]; e.r.seq == e.stamp {
			return e.r
		}
		q.starving.pop()
	}
	return nil
}
