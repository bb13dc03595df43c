package memsim

import "math/bits"

// This file holds the incrementally maintained per-queue index that
// replaced the original scheduler's per-step linear scans. Each
// scheduling class (mitigation, read, metadata, write) keeps:
//
//   - future: the not-yet-arrived requests ordered by (Arrive, seq),
//     so the channel's next-arrival time is the queue front instead of
//     a scan over every queued request;
//   - buckets: the arrived requests grouped per bank in submission
//     (seq) order, so FR-FCFS considers one candidate per bank — the
//     cached oldest row-hit, or the bucket front for a row conflict —
//     instead of estimating every request;
//   - liveSet: one bit per bank with a non-empty bucket, so the
//     per-bank scans visit only occupied banks, in ascending order;
//   - aging/starving: a lazy-deleted aging queue (by Arrive) feeding a
//     starving queue (by seq), which surface the oldest-submitted
//     request past starvationAge exactly, without depending on slice
//     order.
//
// future, aging and starving are entQueues: their keys arrive almost
// always in order, so nearly every entry appends to a FIFO ring and
// pops in O(1); only the rare out-of-order entry pays for a heap.
//
// Requests are removed by tombstoning their bucket slot (Request.qpos
// is the slot index, kept stable until compaction), which replaces the
// old O(n) memmove removal. Queue and heap entries carry the seq the
// request had when the entry was pushed; a served request has its seq
// reset to -1, so stale entries are detected and discarded when they
// surface.

// heapEnt is one entry of a lazily-deleted request queue. key is the
// ordering key (Arrive or seq); stamp is the request's seq at push
// time, compared against the live seq to detect served requests.
type heapEnt struct {
	r     *Request
	key   int64
	stamp int64
}

// entHeap is a binary min-heap by (key, stamp): entQueue's fallback
// for out-of-order entries, and the reference its property machine
// checks it against. The stamp tie-break makes pops deterministic and,
// for the future queue, promotes same-cycle arrivals in submission
// order — which keeps each bank bucket sorted by seq, an invariant
// FR-FCFS tie-breaking relies on. The heap is hand-rolled (rather than
// container/heap) so pushes and pops stay free of interface
// conversions and allocations on the scheduler hot path.
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

// entQueue is a min-queue by (key, stamp) built for almost-sorted
// input: an entry that is not less than the current tail appends to a
// FIFO ring, and any other entry goes to the fallback heap. front and
// pop take the lesser of the ring head and the heap top. (key, stamp)
// is a total order — stamps are unique seqs — so entries pop in
// exactly the order a single heap would give.
//
// The ring is circular: the n live entries sit at ring[head],
// ring[head+1], ... wrapping at len(ring), in sorted order. Pops free
// slots that later pushes wrap around into, so the ring only grows
// when every slot is live.
type entQueue struct {
	ring    []heapEnt
	head, n int
	heap    entHeap
}

// minRing is the ring's first allocation. It skips the smallest growth
// steps, which every busy queue would otherwise pay once per Memory.
const minRing = 16

func (q *entQueue) len() int { return q.n + len(q.heap) }

// slot returns the ring index of the i-th live entry.
func (q *entQueue) slot(i int) int {
	if i += q.head; i >= len(q.ring) {
		i -= len(q.ring)
	}
	return i
}

func (q *entQueue) push(e heapEnt) {
	if q.n > 0 && entLess(e, q.ring[q.slot(q.n-1)]) {
		q.heap.push(e)
		return
	}
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[q.slot(q.n)] = e
	q.n++
}

// grow enlarges a full ring by append's growth policy, gentler than
// doubling for large rings, and moves the run from head to the old end
// up to the new end so the live entries stay contiguous mod len.
func (q *entQueue) grow() {
	if q.ring == nil {
		q.ring = make([]heapEnt, minRing)
		return
	}
	old := len(q.ring)
	ring := append(q.ring, heapEnt{})
	ring = ring[:cap(ring)]
	head := len(ring) - (old - q.head)
	copy(ring[head:], ring[q.head:old])
	clear(ring[q.head:head])
	q.ring, q.head = ring, head
}

// ringFirst reports whether the least entry is the ring head.
func (q *entQueue) ringFirst() bool {
	return q.n > 0 && (len(q.heap) == 0 || entLess(q.ring[q.head], q.heap[0]))
}

// front returns the least entry; the queue must not be empty.
func (q *entQueue) front() heapEnt {
	if q.ringFirst() {
		return q.ring[q.head]
	}
	return q.heap[0]
}

// pop removes and returns the least entry; the queue must not be empty.
func (q *entQueue) pop() heapEnt {
	if !q.ringFirst() {
		return q.heap.pop()
	}
	e := q.ring[q.head]
	q.ring[q.head] = heapEnt{} // release the request pointer
	q.head = q.slot(1)
	q.n--
	return e
}

// bucket holds the arrived requests of one (queue, bank) pair in
// submission (seq) order. Serving a request nils its slot; front skips
// the dead prefix lazily and the slice compacts once it is mostly dead,
// so both the FIFO head and arbitrary middle removals are O(1)
// amortized. Inserts are appends except when arrival timestamps run
// backward (out-of-order submitters such as the throttle policy's
// future-dated rate limiting): the future queue promotes in Arrive
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
	// A full slice with a dead prefix compacts in place: append would
	// otherwise copy the dead slots into a larger array, and a bucket
	// that never empties would keep reallocating.
	if len(b.items) == cap(b.items) && b.head > 0 {
		b.compact()
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
	if b.hitValid && int(r.at.Row) == openRow &&
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
				if r := b.items[i]; r != nil && int(r.at.Row) == openRow {
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
	future  entQueue // Arrive > channel clock, by (Arrive, seq)
	buckets []bucket // arrived requests, per bank
	liveSet []uint64 // bit b set iff buckets[b].live > 0
	readyN  int      // total live requests across buckets

	// starve enables the starvation index (FR-FCFS queues only; the
	// mitigation queue is served strictly oldest-first already).
	starve   bool
	aging    entQueue // arrived requests by Arrive, pending the age bound
	starving entQueue // requests past starvationAge, by seq
	// agingMin is the least key in aging (Infinity when empty), so
	// starvingPick can tell in O(1) that no request can be starving.
	agingMin int64
}

func (q *reqQueue) init(nBanks int, starve bool) {
	q.buckets = make([]bucket, nBanks)
	q.liveSet = make([]uint64, (nBanks+63)/64)
	q.starve = starve
	q.agingMin = Infinity
}

// len counts every queued request, arrived or not (queue-capacity and
// drain-hysteresis checks use the total, as the linear queues did).
func (q *reqQueue) len() int { return q.future.len() + q.readyN }

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
	q.liveSet[bank>>6] |= 1 << (bank & 63)
	q.readyN++
	if q.starve {
		q.aging.push(heapEnt{r, r.Arrive, r.seq})
		q.agingMin = min(q.agingMin, r.Arrive)
	}
}

// remove takes a picked request out of its bucket and stamps it
// served, which lazily deletes any aging/starving entries. A pooled
// request may recycle and resubmit to another channel while this
// channel's lazy indexes still hold the old pointer; seqs are never
// reused, so its new seq can never equal a stale entry's stamp.
func (q *reqQueue) remove(r *Request, bank int) {
	bk := &q.buckets[bank]
	bk.remove(r)
	if bk.live == 0 {
		q.liveSet[bank>>6] &^= 1 << (bank & 63)
	}
	q.readyN--
	r.seq = -1
}

// earliestFuture returns the arrival time of the next not-yet-arrived
// request, or Infinity.
func (q *reqQueue) earliestFuture() int64 {
	if q.future.len() == 0 {
		return Infinity
	}
	return q.future.front().key
}

// oldestReady returns the lowest-seq arrived request (the mitigation
// queue's FCFS order), or nil.
func (q *reqQueue) oldestReady() *Request {
	if q.readyN == 0 {
		return nil
	}
	var best *Request
	for w, word := range q.liveSet {
		for ; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			if r := q.buckets[b].front(); best == nil || r.seq < best.seq {
				best = r
			}
		}
	}
	return best
}

// starvingPick returns the lowest-seq arrived request whose age
// exceeds starvationAge, or nil. Requests migrate from the aging queue
// (keyed by Arrive) into the starving queue (keyed by seq) as the
// threshold passes them; served requests are discarded lazily by the
// stamp check. While no aging entry has passed the threshold and none
// is starving, it returns at once.
func (q *reqQueue) starvingPick(now int64) *Request {
	th := now - starvationAge
	if q.agingMin >= th && q.starving.len() == 0 {
		return nil
	}
	for q.aging.len() > 0 && q.aging.front().key < th {
		if e := q.aging.pop(); e.r.seq == e.stamp {
			q.starving.push(heapEnt{e.r, e.stamp, e.stamp})
		}
	}
	q.agingMin = Infinity
	if q.aging.len() > 0 {
		q.agingMin = q.aging.front().key
	}
	for q.starving.len() > 0 {
		if e := q.starving.front(); e.r.seq == e.stamp {
			return e.r
		}
		q.starving.pop()
	}
	return nil
}
