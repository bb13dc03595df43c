package rh

// rowTablePage is the number of counters in one RowTable page. Random
// page placement scatters a short cell's rows thinly, so large pages are
// mostly empty: on perfbench's sweep-light pass, 4096-row pages doubled
// the allocation (49 MB against 24 MB), and 256-row pages saved little
// (18 MB) for a page index four times the size.
const rowTablePage = 1024

// rowPage is one entry of the page index. epoch records the Clear
// generation the counters belong to: a page from an earlier generation
// reads as all zero, and generation 0, which a table never has, marks
// a page never allocated. Keeping the epoch here rather than beside the
// counters leaves each page exactly 2 or 4 KB, a whole allocation size
// class.
type rowPage[T ~uint16 | ~uint32] struct {
	c     *[rowTablePage]T
	epoch uint32
}

// RowTable is a per-row counter table that only holds the rows it has
// been written at: counters live in rowTablePage-row pages allocated on
// first write, so building a table for millions of rows costs one page
// index, and a cell that touches few rows allocates few pages. Clear is
// O(1): it starts a new generation, and a page of an older one reads as
// zero and is scrubbed on its next write.
//
// Rows index from 0 to rows-1; a row beyond that inside the last page
// is not detected. A RowTable is not safe for concurrent use.
type RowTable[T ~uint16 | ~uint32] struct {
	pages []rowPage[T]
	epoch uint32
}

// NewRowTable returns a table of rows zero counters.
func NewRowTable[T ~uint16 | ~uint32](rows int) *RowTable[T] {
	return &RowTable[T]{pages: make([]rowPage[T], (rows+rowTablePage-1)/rowTablePage), epoch: 1}
}

// Get returns the counter of row, 0 if it was never written since the
// last Clear. It never allocates.
func (t *RowTable[T]) Get(row uint32) T {
	if pg := &t.pages[row/rowTablePage]; pg.epoch == t.epoch {
		return pg.c[row%rowTablePage]
	}
	return 0
}

// Set stores v as the counter of row.
func (t *RowTable[T]) Set(row uint32, v T) {
	t.page(int(row / rowTablePage))[row%rowTablePage] = v
}

// Ref returns a pointer to the counter of row, materializing its page,
// for read-modify-write updates. The pointer is valid until the next
// Clear.
func (t *RowTable[T]) Ref(row uint32) *T {
	return &t.page(int(row / rowTablePage))[row%rowTablePage]
}

// Fill sets the counters of rows [lo, hi) to v, page by page.
func (t *RowTable[T]) Fill(lo, hi int, v T) {
	for lo < hi {
		p := lo / rowTablePage
		end := min(hi, (p+1)*rowTablePage)
		s := t.page(p)[lo-p*rowTablePage : end-p*rowTablePage]
		for i := range s {
			s[i] = v
		}
		lo = end
	}
}

// Clear zeroes every counter in O(1). Generations are counted in a
// uint32, far beyond the windows a simulation resets.
func (t *RowTable[T]) Clear() { t.epoch++ }

// Each calls fn for every nonzero counter, in ascending row order.
// fn may Set the row it is called for.
func (t *RowTable[T]) Each(fn func(row uint32, v T)) {
	for p := range t.pages {
		pg := &t.pages[p]
		if pg.epoch != t.epoch {
			continue
		}
		base := uint32(p * rowTablePage)
		for i, v := range pg.c[:] {
			if v != 0 {
				fn(base+uint32(i), v)
			}
		}
	}
}

// page returns the counters of page p in the current generation,
// allocating them or scrubbing a stale page.
func (t *RowTable[T]) page(p int) *[rowTablePage]T {
	pg := &t.pages[p]
	if pg.epoch != t.epoch {
		if pg.c == nil {
			pg.c = new([rowTablePage]T)
		} else {
			clear(pg.c[:])
		}
		pg.epoch = t.epoch
	}
	return pg.c
}
