package memsim

import (
	"math/bits"

	"repro/internal/obsv"
)

// bank is the per-bank timing state.
type bank struct {
	openRow int   // -1 when precharged
	readyAt int64 // earliest start of the next column activity
	lastAct int64 // last activation time (tRC spacing)
	// wrRecover is the earliest the bank may precharge after a write
	// burst (tWR write recovery). It gates only the precharge/activate
	// path: row-hit CAS commands after a write stream at burst rate.
	wrRecover int64
}

// channel is one memory controller: queues, banks, bus and refresh.
type channel struct {
	cfg *Config
	sh  *shared
	id  int

	banks   []bank
	faw     [][4]int64 // per rank: last four ACT times
	fawIdx  []int
	nextRef []int64 // per rank: next scheduled refresh

	busFreeAt int64
	// lastWriteEnd is when the most recent write burst left the data
	// bus and lastWriteBank which bank it targeted; a read CAS pays
	// the tWTR turnaround from it — the long value on the same bank,
	// the short one across banks (standing in for DDR4 bank groups).
	// Tracked per channel (bus granularity), which is exact for the
	// single-rank baseline.
	lastWriteEnd  int64
	lastWriteBank int

	mitigQ reqQueue
	readQ  reqQueue
	metaQ  reqQueue
	writeQ reqQueue

	draining   bool
	now        int64
	nextAt     int64
	dispatchAt int64 // earliest next scheduling decision (pacing)
	openBanks  int64 // banks with an open row (occupancy sampling)

	// Per-decision samples of the read, write and metadata queue
	// depths and of the open-bank count, one counter per value;
	// Memory.Stats folds them into the histograms of Stats.
	readQDepth, writeQDepth, metaQDepth, openBanksN tally

	// events buffers this channel's side effects (completions,
	// activation-hook calls, refresh trace events) until the epoch
	// barrier replays them; evHead is the drain cursor. See epoch.go.
	events []chanEvent
	evHead int

	stats Stats
}

const (
	// starvationAge forces FCFS for a request stuck this long.
	starvationAge int64 = 4000
	// cmdGap spaces non-data commands (mitigation ACTs).
	cmdGap int64 = 4
	// metaPressure is the tracker's miss-buffer depth: when more
	// metadata transfers than this are outstanding, they take priority
	// over demand reads, modeling the pipeline stall a real controller
	// takes when its tracker buffer fills. Without this bound a
	// saturating tracker (CRA under a hot workload) would defer its
	// counter updates forever.
	metaPressure = 32
)

func newChannel(cfg *Config, sh *shared, id int) *channel {
	nBanks := cfg.Mem.RanksPerChannel * cfg.Mem.BanksPerRank
	c := &channel{
		cfg:     cfg,
		sh:      sh,
		id:      id,
		banks:   make([]bank, nBanks),
		faw:     make([][4]int64, cfg.Mem.RanksPerChannel),
		fawIdx:  make([]int, cfg.Mem.RanksPerChannel),
		nextRef: make([]int64, cfg.Mem.RanksPerChannel),
		nextAt:  Infinity,

		readQDepth:  newTally(readQBounds),
		writeQDepth: newTally(writeQBounds),
		metaQDepth:  newTally(metaQBounds),
		openBanksN:  newTally(openBankBounds),
	}
	c.mitigQ.init(nBanks, false)
	c.readQ.init(nBanks, true)
	c.metaQ.init(nBanks, true)
	c.writeQ.init(nBanks, true)
	for i := range c.banks {
		c.banks[i].openRow = -1
		c.banks[i].lastAct = -Infinity
	}
	for r := range c.faw {
		for j := range c.faw[r] {
			c.faw[r][j] = -Infinity
		}
		// Stagger refresh start per rank and channel a little so the
		// whole system does not refresh in lockstep. The stagger is
		// clamped modulo tREFI: large channel/rank counts must not
		// push a rank's first refresh beyond one extra window.
		c.nextRef[r] = cfg.Timing.TREFI + int64(id*997+r*511)%cfg.Timing.TREFI
	}
	return c
}

// Histogram bounds of the per-decision samples. Queue-depth buckets
// cover the default capacities; deeper custom queues land in the
// overflow bucket. Bounds are fixed so that per-channel histograms
// merge in Memory.Stats.
var (
	readQBounds    = obsv.PowersOfTwo(64)
	writeQBounds   = obsv.PowersOfTwo(128)
	metaQBounds    = obsv.PowersOfTwo(64)
	openBankBounds = obsv.PowersOfTwo(32)
)

// tally counts the non-negative samples of one histogram. Recording a
// sample is an increment, which keeps histogram bucketing off the
// per-decision path; hist folds the counts once, when statistics are
// read. Values up to the last bound get a counter each, grown on
// demand because most cells never see deep queues; every value past
// it lands in the overflow bucket, so for those a count, a sum and a
// maximum are all hist needs.
type tally struct {
	bounds  []int64
	counts  []int64 // counts[v]: samples of value v
	over    int64   // samples past the last bound
	overSum int64
	overMax int64
}

func newTally(bounds []int64) tally { return tally{bounds: bounds} }

func (t *tally) add(v int) {
	if v < len(t.counts) {
		t.counts[v]++
		return
	}
	t.addSlow(v)
}

// addSlow is kept out of line so that add inlines into step.
//
//go:noinline
func (t *tally) addSlow(v int) {
	last := int(t.bounds[len(t.bounds)-1])
	if v > last {
		t.over++
		t.overSum += int64(v)
		t.overMax = max(t.overMax, int64(v))
		return
	}
	// At least double, so a queue deepening one request at a time
	// reallocates only logarithmically.
	grown := make([]int64, min(max(v+1, 2*len(t.counts), 16), last+1))
	copy(grown, t.counts)
	t.counts = grown
	t.counts[v]++
}

// hist returns the histogram that observing every sample would have
// built.
func (t *tally) hist() obsv.Hist {
	h := obsv.NewHist(t.bounds...)
	for v, n := range t.counts {
		h.ObserveN(int64(v), n)
	}
	if t.over > 0 {
		h.Counts[len(t.bounds)] += t.over
		h.N += t.over
		h.Sum += t.overSum
		h.Max = max(h.Max, t.overMax)
	}
	return h
}

func (c *channel) bankIdx(r *Request) int { return int(r.at.Bank) }

func (c *channel) queueFor(k Kind) *reqQueue {
	switch k {
	case MitigAct:
		return &c.mitigQ
	case ReadReq:
		return &c.readQ
	case MetaRead:
		return &c.metaQ
	default:
		return &c.writeQ
	}
}

func (c *channel) submit(r *Request) bool {
	switch r.Kind {
	case ReadReq:
		if c.readQ.len() >= c.cfg.ReadQCap {
			c.stats.ReadQFull++
			return false
		}
	case WriteReq:
		if c.writeQ.len() >= c.cfg.WriteQCap {
			c.stats.WriteQFull++
			return false
		}
	}
	r.seq = c.sh.nextSeq()
	b := c.bankIdx(r)
	c.queueFor(r.Kind).add(r, b, c.banks[b].openRow, c.now)
	at := r.Arrive
	if at < c.dispatchAt {
		at = c.dispatchAt
	}
	if at < c.now {
		at = c.now
	}
	if at < c.nextAt {
		c.nextAt = at
	}
	return true
}

func (c *channel) idle() bool {
	return c.mitigQ.len() == 0 && c.readQ.len() == 0 && c.metaQ.len() == 0 && c.writeQ.len() == 0
}

// promote moves every request that has arrived by now from the future
// queue into its bank bucket.
func (c *channel) promote(q *reqQueue, now int64) {
	for q.future.len() > 0 && q.future.front().key <= now {
		r := q.future.pop().r
		b := c.bankIdx(r)
		q.insertReady(r, b, c.banks[b].openRow)
	}
}

// step processes one scheduling decision at c.nextAt.
func (c *channel) step() {
	now := c.nextAt
	c.now = now
	c.applyRefreshes(now)
	c.promote(&c.mitigQ, now)
	c.promote(&c.readQ, now)
	c.promote(&c.metaQ, now)
	c.promote(&c.writeQ, now)
	c.readQDepth.add(c.readQ.len())
	c.writeQDepth.add(c.writeQ.len())
	c.metaQDepth.add(c.metaQ.len())
	c.openBanksN.add(int(c.openBanks))

	r, from := c.pick(now)
	if r == nil {
		c.nextAt = c.earliestArrival()
		if c.nextAt < c.dispatchAt {
			c.nextAt = c.dispatchAt
		}
		return
	}
	from.remove(r, c.bankIdx(r))
	c.service(r, now)
	// Pace the next scheduling decision: command bandwidth for
	// bank-only activations; for data requests, stay a bounded
	// lookahead ahead of the data bus so queues hold requests the bus
	// cannot yet serve (realistic occupancy and backpressure).
	c.dispatchAt = now + cmdGap
	if r.Kind != MitigAct {
		lookahead := c.cfg.Timing.TRP + c.cfg.Timing.TRCD + c.cfg.Timing.TCAS
		if t := c.busFreeAt - lookahead; t > c.dispatchAt {
			c.dispatchAt = t
		}
	}
	c.nextAt = c.dispatchAt
}

// applyRefreshes issues every rank refresh scheduled at or before now.
// The refresh occupies all banks of the rank for tRFC starting at its
// scheduled time, so refreshes caught up after an idle gap do not
// stack.
func (c *channel) applyRefreshes(now int64) {
	for rank := range c.nextRef {
		for c.nextRef[rank] <= now {
			start := c.nextRef[rank]
			lo := rank * c.cfg.Mem.BanksPerRank
			for b := lo; b < lo+c.cfg.Mem.BanksPerRank; b++ {
				bk := &c.banks[b]
				s := start
				if bk.readyAt > s {
					s = bk.readyAt
				}
				// The refresh's implicit precharge respects tWR.
				if bk.openRow >= 0 && bk.wrRecover > s {
					s = bk.wrRecover
				}
				bk.readyAt = s + c.cfg.Timing.TRFC
				if bk.openRow >= 0 {
					c.openBanks--
					bk.openRow = -1
					c.rowChanged(b)
				}
			}
			c.stats.Refreshes++
			if c.cfg.Trace.Enabled() {
				c.events = append(c.events, chanEvent{
					dec: now, t: start, kind: evRefresh, row: uint32(c.id), aux: int64(rank),
				})
			}
			c.nextRef[rank] += c.cfg.Timing.TREFI
		}
	}
}

// rowChanged invalidates the cached row-hit candidates of every
// FR-FCFS queue for one bank, after its open row changed.
func (c *channel) rowChanged(bank int) {
	c.readQ.buckets[bank].invalidateHit()
	c.metaQ.buckets[bank].invalidateHit()
	c.writeQ.buckets[bank].invalidateHit()
}

// earliestArrival returns the next time any queued request arrives;
// only meaningful when pick found nothing ready.
func (c *channel) earliestArrival() int64 {
	t := Infinity
	for _, q := range [...]*reqQueue{&c.mitigQ, &c.readQ, &c.metaQ, &c.writeQ} {
		if q.readyN > 0 {
			return c.now
		}
		if f := q.earliestFuture(); f < t {
			t = f
		}
	}
	if t < c.now {
		t = c.now
	}
	return t
}

// pick chooses the next request: mitigation activations, then demand
// reads (or writes while draining), then metadata, then opportunistic
// writes.
func (c *channel) pick(now int64) (*Request, *reqQueue) {
	if r := c.mitigQ.oldestReady(); r != nil {
		return r, &c.mitigQ
	}
	wlen := c.writeQ.len()
	if wlen >= c.cfg.DrainHi {
		if !c.draining {
			c.stats.DrainEnters++
		}
		c.draining = true
	} else if wlen <= c.cfg.DrainLo {
		if c.draining {
			c.stats.DrainExits++
		}
		c.draining = false
	}
	if c.draining {
		if r := c.frfcfs(&c.writeQ, now); r != nil {
			return r, &c.writeQ
		}
	}
	if c.metaQ.len() > metaPressure {
		if r := c.frfcfs(&c.metaQ, now); r != nil {
			return r, &c.metaQ
		}
	}
	if r := c.frfcfs(&c.readQ, now); r != nil {
		return r, &c.readQ
	}
	if r := c.frfcfs(&c.metaQ, now); r != nil {
		return r, &c.metaQ
	}
	if r := c.frfcfs(&c.writeQ, now); r != nil {
		return r, &c.writeQ
	}
	return nil, nil
}

// frfcfs implements first-ready FCFS over the bank index: among
// arrived requests, prefer the one whose data can start earliest (row
// hits win over conflicts), breaking ties by submission order; a
// request older than starvationAge is served first regardless, oldest
// submission first. Only one candidate per bank can win — the cached
// oldest row-hit, else the bucket front — so the scan is over banks,
// not requests.
func (c *channel) frfcfs(q *reqQueue, now int64) *Request {
	if q.readyN == 0 {
		return nil
	}
	if r := q.starvingPick(now); r != nil {
		return r
	}
	tm := &c.cfg.Timing
	penalty := tm.TRP + tm.TRCD
	var best *Request
	var bestEst int64
	for w, word := range q.liveSet {
		for ; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			bk := &q.buckets[b]
			bank := &c.banks[b]
			est := bank.readyAt
			if est < now {
				est = now
			}
			cand := bk.bestHitFor(bank.openRow)
			if cand == nil {
				cand = bk.front()
				est += penalty
			}
			if best == nil || est < bestEst || (est == bestEst && cand.seq < best.seq) {
				best, bestEst = cand, est
			}
		}
	}
	return best
}

func (c *channel) fawReady(rank int) int64 {
	return c.faw[rank][c.fawIdx[rank]] + c.cfg.Timing.TFAW
}

func (c *channel) fawPush(rank int, t int64) {
	c.faw[rank][c.fawIdx[rank]] = t
	c.fawIdx[rank] = (c.fawIdx[rank] + 1) % 4
}

// service executes one request, updating bank, bus and statistics, and
// invoking the activation hook and completion callback.
func (c *channel) service(r *Request, now int64) {
	tm := &c.cfg.Timing
	bi := c.bankIdx(r)
	b := &c.banks[bi]
	start := now
	if b.readyAt > start {
		start = b.readyAt
	}

	var activatedAt int64 = -1
	var finish int64

	if r.Kind == MitigAct {
		actAt := start
		if b.openRow >= 0 {
			if b.wrRecover > actAt {
				actAt = b.wrRecover
			}
			actAt += tm.TRP
			c.openBanks--
		}
		if t := b.lastAct + tm.TRC; t > actAt {
			actAt = t
		}
		if t := c.fawReady(int(r.at.Rank)); t > actAt {
			actAt = t
		}
		b.lastAct = actAt
		if b.openRow >= 0 {
			b.openRow = -1
			c.rowChanged(bi)
		}
		b.readyAt = actAt + tm.TRC
		c.fawPush(int(r.at.Rank), actAt)
		c.stats.MitigActs++
		c.stats.Activates++
		activatedAt = actAt
		finish = actAt + tm.TRC
	} else {
		isWrite := r.Kind == WriteReq || r.Kind == MetaWrite
		var casAt int64
		if b.openRow == int(r.at.Row) {
			c.stats.RowHits++
			casAt = start
		} else {
			actAt := start
			if b.openRow >= 0 {
				// Precharge first: it must wait out any pending write
				// recovery on this bank.
				if b.wrRecover > actAt {
					actAt = b.wrRecover
				}
				actAt += tm.TRP
			} else {
				c.openBanks++
			}
			if t := b.lastAct + tm.TRC; t > actAt {
				actAt = t
			}
			if t := c.fawReady(int(r.at.Rank)); t > actAt {
				actAt = t
			}
			b.lastAct = actAt
			b.openRow = int(r.at.Row)
			c.rowChanged(bi)
			c.fawPush(int(r.at.Rank), actAt)
			c.stats.Activates++
			activatedAt = actAt
			casAt = actAt + tm.TRCD
		}
		if !isWrite {
			// Write-to-read turnaround: a read CAS must trail the last
			// write burst by tWTR (long same-bank, short otherwise).
			wtr := tm.TWTRS
			if bi == c.lastWriteBank {
				wtr = tm.TWTR
			}
			if t := c.lastWriteEnd + wtr; t > casAt {
				casAt = t
			}
		}
		dataAt := casAt + tm.TCAS
		if c.busFreeAt > dataAt {
			dataAt = c.busFreeAt
		}
		c.busFreeAt = dataAt + tm.TBURST
		b.readyAt = dataAt + tm.TBURST - tm.TCAS
		if isWrite {
			// Write recovery: the bank cannot precharge (and so cannot
			// open a new row) until tWR after the write burst leaves
			// the bus. Row-hit CAS traffic is not held up.
			b.wrRecover = dataAt + tm.TBURST + tm.TWR
			c.lastWriteEnd = dataAt + tm.TBURST
			c.lastWriteBank = bi
		}
		finish = dataAt + tm.TBURST

		switch r.Kind {
		case ReadReq:
			finish += c.cfg.StaticLatency
			c.stats.Reads++
			c.stats.ReadLatSum += finish - r.Arrive
		case WriteReq:
			c.stats.Writes++
		case MetaRead:
			c.stats.MetaReads++
		case MetaWrite:
			c.stats.MetaWrites++
		}
	}

	if finish > c.stats.BusyUntil {
		c.stats.BusyUntil = finish
	}
	// Side effects are buffered, not invoked: the epoch barrier replays
	// them (completion before activation hook, as the old synchronous
	// order had it). Pooled requests recycle when their finish event
	// drains, so the request pointer stays valid for the callback.
	if r.OnFinish != nil || r.pooled {
		c.events = append(c.events, chanEvent{dec: now, t: finish, kind: evFinish, r: r})
	}
	if activatedAt >= 0 && c.cfg.OnACT != nil {
		c.events = append(c.events, chanEvent{
			dec: now, t: activatedAt, kind: evAct,
			row: r.at.GlobalRow, rkind: r.Kind,
		})
	}
}
