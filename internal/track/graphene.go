package track

import (
	"fmt"

	"repro/internal/rh"
)

// Graphene implements the Misra-Gries-based tracker of Park et al.
// (MICRO 2020), the paper's SRAM state of the art. Each bank owns a
// table of (row, count) entries plus a spillover counter:
//
//   - a hit increments the entry's count;
//   - a miss, with the table full, replaces an entry whose count
//     equals the spillover counter, inheriting spillover+1 (a
//     conservative overestimate of the new row's true count);
//   - if no entry sits at the spillover floor, the spillover counter
//     itself is incremented.
//
// An entry's estimated count never undercounts the row's true count,
// so issuing a mitigation whenever the estimate advances by the
// operating threshold guarantees detection. Sized per the paper
// (Section 4.1): ceil(ACTMax / (T_RH/2)) entries per bank, about 5441
// at T_RH = 500.
//
// Hardware performs the floor search with a CAM. This model keeps each
// bank's table as a Space-Saving stream summary (Metwally et al.): one
// list of the entries in ascending count order, made of one group per
// distinct count, each group in the order its entries reached that
// count. An increment moves an entry to the tail of the group one count
// up. Once the table is full no resident count is below the spillover
// counter, so the floor rows are exactly the lowest group when its
// count equals the spillover counter, and the row replaced is that
// group's head: the one that has sat at the floor longest. Every
// operation is O(1), and a given activation sequence always produces
// the same mitigations.
type Graphene struct {
	geom      Geometry
	threshold int // mitigation threshold (T_RH/2)
	perBank   int // entries per bank
	banks     []grapheneBank

	// Mitigations counts mitigations issued over the tracker lifetime.
	Mitigations int64
}

// grapheneEntry is one table entry. Entries are addressed by their
// index in grapheneBank.entries; -1 stands for none.
type grapheneEntry struct {
	row        rh.Row
	prev, next int32 // neighbours in ascending count order
	group      int32 // index in grapheneBank.groups; the group holds the count
	lastMitig  int   // estimate at the last mitigation
}

// grapheneGroup is the run of entries at one count, head to tail.
type grapheneGroup struct {
	count      int
	head, tail int32
}

type grapheneBank struct {
	slot       map[rh.Row]int32 // resident row -> entry index
	entries    []grapheneEntry  // grows with the rows a window touches
	groups     []grapheneGroup
	freeGroups []int32
	first      int32 // head of the lowest group
	spillover  int
	capacity   int
}

var _ rh.Tracker = (*Graphene)(nil)

// NewGraphene creates a Graphene tracker for the target T_RH.
func NewGraphene(geom Geometry, trh int) (*Graphene, error) {
	if geom.Rows <= 0 || geom.RowsPerBank <= 0 || geom.ACTMax <= 0 || geom.Banks <= 0 {
		return nil, fmt.Errorf("track: invalid geometry %+v", geom)
	}
	if trh <= 1 {
		return nil, fmt.Errorf("track: TRH must exceed 1, got %d", trh)
	}
	t := mitigationThreshold(trh)
	perBank := (geom.ACTMax + t - 1) / t
	g := &Graphene{
		geom:      geom,
		threshold: t,
		perBank:   perBank,
		banks:     make([]grapheneBank, geom.Banks),
	}
	for i := range g.banks {
		g.banks[i] = newGrapheneBank(perBank)
	}
	return g, nil
}

func newGrapheneBank(capacity int) grapheneBank {
	return grapheneBank{slot: make(map[rh.Row]int32), first: -1, capacity: capacity}
}

// reset empties the table for a new window, keeping its storage.
func (b *grapheneBank) reset() {
	clear(b.slot)
	b.entries = b.entries[:0]
	b.groups = b.groups[:0]
	b.freeGroups = b.freeGroups[:0]
	b.first = -1
	b.spillover = 0
}

// Name implements rh.Tracker.
func (g *Graphene) Name() string { return "graphene" }

// EntriesPerBank returns the table size per bank (5441-ish at T_RH 500).
func (g *Graphene) EntriesPerBank() int { return g.perBank }

// Threshold returns the operating (mitigation) threshold, T_RH/2.
func (g *Graphene) Threshold() int { return g.threshold }

// newGroup returns the index of a new group of count holding only
// entry i.
func (b *grapheneBank) newGroup(count int, i int32) int32 {
	gr := grapheneGroup{count: count, head: i, tail: i}
	if n := len(b.freeGroups); n > 0 {
		id := b.freeGroups[n-1]
		b.freeGroups = b.freeGroups[:n-1]
		b.groups[id] = gr
		return id
	}
	b.groups = append(b.groups, gr)
	return int32(len(b.groups) - 1)
}

// unlink takes entry i out of the list and out of its group, freeing
// the group if i was its only entry.
func (b *grapheneBank) unlink(i int32) {
	e := &b.entries[i]
	gr := &b.groups[e.group]
	switch {
	case gr.head == i && gr.tail == i:
		b.freeGroups = append(b.freeGroups, e.group)
	case gr.head == i:
		gr.head = e.next
	case gr.tail == i:
		gr.tail = e.prev
	}
	if e.prev >= 0 {
		b.entries[e.prev].next = e.next
	} else {
		b.first = e.next
	}
	if e.next >= 0 {
		b.entries[e.next].prev = e.prev
	}
}

// linkAfter puts entry i into the list after entry at, or first when
// at is -1; the caller sets its group.
func (b *grapheneBank) linkAfter(i, at int32) {
	e := &b.entries[i]
	e.prev = at
	if at >= 0 {
		e.next = b.entries[at].next
		b.entries[at].next = i
	} else {
		e.next = b.first
		b.first = i
	}
	if e.next >= 0 {
		b.entries[e.next].prev = i
	}
}

// bump raises entry i's count by one, moving it to the tail of the
// group one count up (the group right after its own, or a new one).
func (b *grapheneBank) bump(i int32) {
	gi := b.entries[i].group
	count := b.groups[gi].count + 1
	up := b.entries[b.groups[gi].tail].next // head of the next group
	if up >= 0 && b.groups[b.entries[up].group].count == count {
		gu := b.entries[up].group
		b.unlink(i)
		b.linkAfter(i, b.groups[gu].tail)
		b.groups[gu].tail = i
		b.entries[i].group = gu
		return
	}
	if b.groups[gi].head == i && b.groups[gi].tail == i {
		b.groups[gi].count = count
		return
	}
	b.unlink(i)
	b.linkAfter(i, b.groups[gi].tail)
	b.entries[i].group = b.newGroup(count, i)
}

// activate applies one activation of row. It returns the row's entry
// when the activation hit or replaced one, the cases in which the
// estimate can reach a mitigation threshold, and -1 otherwise: a fresh
// entry starts at 1 and a spillover increment leaves no entry. evicted
// reports a replacement.
func (b *grapheneBank) activate(row rh.Row) (entry int32, evicted bool) {
	if i, ok := b.slot[row]; ok {
		b.bump(i)
		return i, false
	}
	if len(b.entries) < b.capacity {
		// The new entry joins the tail of the count-1 group (spillover
		// stays 0 until the table fills): it enters first at count 0
		// and is bumped.
		i := int32(len(b.entries))
		b.entries = append(b.entries, grapheneEntry{row: row})
		b.linkAfter(i, -1)
		b.entries[i].group = b.newGroup(0, i)
		b.bump(i)
		b.slot[row] = i
		return -1, false
	}
	// Table full: the row that has sat at the spillover floor longest
	// gives its entry to the new row, which inherits spillover+1.
	if v := b.first; b.groups[b.entries[v].group].count == b.spillover {
		delete(b.slot, b.entries[v].row)
		b.slot[row] = v
		b.entries[v].row = row
		b.entries[v].lastMitig = b.spillover
		b.bump(v)
		return v, true
	}
	b.spillover++
	return -1, false
}

// due reports whether entry i's estimate has advanced by at least cut
// since its last mitigation, and if so records the mitigation.
func (b *grapheneBank) due(i int32, cut int) bool {
	e := &b.entries[i]
	count := b.groups[e.group].count
	if count-e.lastMitig < cut {
		return false
	}
	e.lastMitig = count
	return true
}

// estimate returns a row's entry count when resident, the spillover
// floor otherwise.
func (b *grapheneBank) estimate(row rh.Row) int {
	if i, ok := b.slot[row]; ok {
		return b.groups[b.entries[i].group].count
	}
	return b.spillover
}

// Activate implements rh.Tracker.
func (g *Graphene) Activate(row rh.Row) bool {
	b := &g.banks[g.geom.bank(row)]
	if i, _ := b.activate(row); i >= 0 && b.due(i, g.threshold) {
		g.Mitigations++
		return true
	}
	return false
}

// ActivateMeta implements rh.Tracker; Graphene has no DRAM metadata.
func (g *Graphene) ActivateMeta(int) bool { return false }

// MetaRows implements rh.Tracker.
func (g *Graphene) MetaRows() int { return 0 }

// ResetWindow implements rh.Tracker.
func (g *Graphene) ResetWindow() {
	for i := range g.banks {
		g.banks[i].reset()
	}
}

// SRAMBytes implements rh.Tracker: 4 bytes per CAM entry (row tag plus
// counter), the calibration that reproduces the paper's Table 1 column
// (340 KB per 16-bank rank at T_RH = 500).
func (g *Graphene) SRAMBytes() int {
	return g.perBank * g.geom.Banks * 4
}

// EstimatedCount returns the tracker's estimate for a row: its entry
// count when resident, the spillover floor otherwise. The estimate
// never undercounts the true count.
func (g *Graphene) EstimatedCount(row rh.Row) int {
	return g.banks[g.geom.bank(row)].estimate(row)
}
