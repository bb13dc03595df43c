package track

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/rh"
	"repro/internal/testutil"
)

// testGeom is a small system for fast tests: 1024 rows over 4 banks,
// at most 10000 activations per bank per window.
func testGeom() Geometry {
	return Geometry{Rows: 1024, RowsPerBank: 256, Banks: 4, ACTMax: 10000}
}

const testTRH = 100 // operating threshold 50

func TestGrapheneHammerMitigatedEveryThreshold(t *testing.T) {
	g := testutil.Must(NewGraphene(testGeom(), testTRH))
	row := rh.Row(7)
	mitigs := 0
	for i := 1; i <= 200; i++ {
		if g.Activate(row) {
			mitigs++
			if i%50 != 0 {
				t.Fatalf("mitigation at activation %d, want multiples of 50", i)
			}
		}
	}
	if mitigs != 4 {
		t.Fatalf("mitigations = %d, want 4", mitigs)
	}
}

func TestGrapheneSizingMatchesPaper(t *testing.T) {
	g := testutil.Must(NewGraphene(BaselineGeometry(), 500))
	if got := g.EntriesPerBank(); got != 5440 {
		t.Errorf("entries per bank = %d, want 5440 (~5441 in the paper)", got)
	}
	// Two ranks of 16 banks: ~680 KB total (Table 5).
	kb := g.SRAMBytes() / 1024
	if kb < 640 || kb > 720 {
		t.Errorf("SRAM = %d KB, want ~680 KB", kb)
	}
}

// TestGrapheneSecurityUnderThrash drives the TRRespass-style pattern:
// hammer one row while touching many distractor rows to thrash the
// table. With the guaranteed sizing, no row may accumulate T_RH true
// activations without a mitigation within one window's activation
// budget.
func TestGrapheneSecurityUnderThrash(t *testing.T) {
	geom := testGeom()
	g := testutil.Must(NewGraphene(geom, testTRH))
	rng := rand.New(rand.NewSource(1))
	trueCount := make(map[rh.Row]int)
	target := rh.Row(3)
	for acts := 0; acts < geom.ACTMax; acts++ {
		var row rh.Row
		if acts%3 == 0 {
			row = target
		} else {
			row = rh.Row(rng.Intn(256)) // same bank as target
		}
		trueCount[row]++
		if g.Activate(row) {
			trueCount[row] = 0
		}
		if trueCount[row] >= testTRH {
			t.Fatalf("row %d reached %d true activations without mitigation (act %d)",
				row, trueCount[row], acts)
		}
	}
}

func TestGrapheneEstimateNeverUndercounts(t *testing.T) {
	g := testutil.Must(NewGraphene(testGeom(), testTRH))
	rng := rand.New(rand.NewSource(2))
	trueCount := make(map[rh.Row]int)
	for i := 0; i < 5000; i++ {
		row := rh.Row(rng.Intn(256))
		trueCount[row]++
		g.Activate(row)
		if got := g.EstimatedCount(row); got < trueCount[row] {
			t.Fatalf("estimate %d < true %d for row %d", got, trueCount[row], row)
		}
	}
}

func TestGrapheneResetWindow(t *testing.T) {
	g := testutil.Must(NewGraphene(testGeom(), testTRH))
	for i := 0; i < 49; i++ {
		g.Activate(rh.Row(7))
	}
	g.ResetWindow()
	for i := 1; i <= 49; i++ {
		if g.Activate(rh.Row(7)) {
			t.Fatalf("mitigation at %d activations after reset", i)
		}
	}
	if !g.Activate(rh.Row(7)) {
		t.Fatal("no mitigation at 50 after reset")
	}
}

// grapheneFillSeq is an activation sequence that fills bank 0's
// 200-entry testGeom table: 40 warm rows revisited among pressure
// spread over all 256 rows of the bank.
func grapheneFillSeq(n int) []rh.Row {
	rng := rand.New(rand.NewSource(3))
	seq := make([]rh.Row, n)
	for i := range seq {
		if rng.Intn(2) == 0 {
			seq[i] = rh.Row(rng.Intn(40))
		} else {
			seq[i] = rh.Row(rng.Intn(256))
		}
	}
	return seq
}

// TestGrapheneDeterministic runs one table-filling activation sequence
// repeatedly: the mitigations and every row's estimate must repeat
// exactly. The table-full path once picked its victim in Go's
// randomized map order, so two runs diverged within ~13,500
// activations.
func TestGrapheneDeterministic(t *testing.T) {
	seq := grapheneFillSeq(30000)
	run := func() (mitigs, est []int) {
		g := testutil.Must(NewGraphene(testGeom(), testTRH))
		for i, row := range seq {
			if g.Activate(row) {
				mitigs = append(mitigs, i)
			}
		}
		for r := 0; r < 256; r++ {
			est = append(est, g.EstimatedCount(rh.Row(r)))
		}
		return mitigs, est
	}
	wantM, wantE := run()
	if len(wantM) == 0 {
		t.Fatal("sequence issued no mitigations")
	}
	for rep := 1; rep < 20; rep++ {
		m, e := run()
		if !reflect.DeepEqual(m, wantM) {
			t.Fatalf("repeat %d: mitigations differ from the first run", rep)
		}
		if !reflect.DeepEqual(e, wantE) {
			t.Fatalf("repeat %d: estimates differ from the first run", rep)
		}
	}
}

// fifoGraphene is a linear-scan reference of one Graphene bank: a miss
// on a full table replaces, among the entries at the spillover floor,
// the one that reached its count earliest.
type fifoGraphene struct {
	entries          []fifoEntry
	capacity, cut    int
	spillover, clock int
}

type fifoEntry struct {
	row                     rh.Row
	count, lastMitig, since int
}

func (f *fifoGraphene) activate(row rh.Row) bool {
	f.clock++
	due := func(e *fifoEntry) bool {
		if e.count-e.lastMitig < f.cut {
			return false
		}
		e.lastMitig = e.count
		return true
	}
	for i := range f.entries {
		if e := &f.entries[i]; e.row == row {
			e.count++
			e.since = f.clock
			return due(e)
		}
	}
	if len(f.entries) < f.capacity {
		f.entries = append(f.entries, fifoEntry{row: row, count: 1, since: f.clock})
		return false
	}
	v := -1
	for i, e := range f.entries {
		if e.count == f.spillover && (v < 0 || e.since < f.entries[v].since) {
			v = i
		}
	}
	if v < 0 {
		f.spillover++
		return false
	}
	f.entries[v] = fifoEntry{row: row, count: f.spillover + 1, lastMitig: f.spillover, since: f.clock}
	return due(&f.entries[v])
}

func (f *fifoGraphene) estimate(row rh.Row) int {
	for _, e := range f.entries {
		if e.row == row {
			return e.count
		}
	}
	return f.spillover
}

// TestGrapheneMatchesFIFOReference checks the O(1) stream summary
// against the linear reference, activation by activation, on a
// sequence that keeps the table full and the floor contended.
func TestGrapheneMatchesFIFOReference(t *testing.T) {
	g := testutil.Must(NewGraphene(testGeom(), testTRH))
	ref := &fifoGraphene{capacity: g.EntriesPerBank(), cut: g.Threshold()}
	for i, row := range grapheneFillSeq(30000) {
		if got, want := g.Activate(row), ref.activate(row); got != want {
			t.Fatalf("activation %d (row %d): mitigation %v, reference %v", i, row, got, want)
		}
		if i%1000 == 0 {
			for r := rh.Row(0); r < 256; r++ {
				if got, want := g.EstimatedCount(r), ref.estimate(r); got != want {
					t.Fatalf("after activation %d: row %d estimate %d, reference %d", i, r, got, want)
				}
			}
		}
	}
	if ref.spillover == 0 {
		t.Fatal("the sequence never raised the spillover floor")
	}
}

func TestOCPRExact(t *testing.T) {
	o := testutil.Must(NewOCPR(testGeom(), testTRH))
	row := rh.Row(100)
	for i := 1; i <= 49; i++ {
		if o.Activate(row) {
			t.Fatalf("early mitigation at %d", i)
		}
	}
	if !o.Activate(row) {
		t.Fatal("no mitigation at 50")
	}
	if o.Count(row) != 0 {
		t.Fatal("count not reset after mitigation")
	}
	o.ResetWindow()
	if o.Count(row) != 0 {
		t.Fatal("counters survive reset")
	}
	if o.Mitigations != 1 {
		t.Fatal("lifetime stats must survive reset")
	}
}

func TestOCPRStorageMatchesTable1(t *testing.T) {
	// 16 GB rank = 2 M rows; at T_RH 500 a 9-bit counter per row
	// gives 2.25 MB (Table 1 reports 2.3 MB).
	o := testutil.Must(NewOCPR(Geometry{Rows: 2 * 1024 * 1024, RowsPerBank: 131072, Banks: 16, ACTMax: 1360000}, 500))
	mb := float64(o.SRAMBytes()) / (1 << 20)
	if mb < 2.2 || mb > 2.4 {
		t.Errorf("OCPR storage = %.2f MB, want ~2.3 MB", mb)
	}
}

func TestPARAStatistics(t *testing.T) {
	p := testutil.Must(NewPARA(500, 1e-9, 42))
	// p = 1 - (1e-9)^(1/500) ~ 0.0406
	if p.Probability() < 0.03 || p.Probability() > 0.06 {
		t.Fatalf("p = %v, want ~0.041", p.Probability())
	}
	n := 200000
	mitigs := 0
	for i := 0; i < n; i++ {
		if p.Activate(rh.Row(0)) {
			mitigs++
		}
	}
	want := p.Probability() * float64(n)
	if float64(mitigs) < want*0.9 || float64(mitigs) > want*1.1 {
		t.Fatalf("mitigations = %d, want ~%.0f", mitigs, want)
	}
}

func TestPARADeterministicPerSeed(t *testing.T) {
	a := testutil.Must(NewPARA(500, 1e-9, 7))
	b := testutil.Must(NewPARA(500, 1e-9, 7))
	for i := 0; i < 1000; i++ {
		if a.Activate(0) != b.Activate(0) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPARAValidation(t *testing.T) {
	if _, err := NewPARA(1, 1e-9, 0); err == nil {
		t.Error("TRH=1 accepted")
	}
	if _, err := NewPARA(500, 0, 0); err == nil {
		t.Error("failProb=0 accepted")
	}
	if _, err := NewPARA(500, 1, 0); err == nil {
		t.Error("failProb=1 accepted")
	}
}

func TestCRAMitigatesAtThreshold(t *testing.T) {
	c := testutil.Must(NewCRA(testGeom(), testTRH, 4096, rh.NullSink{}))
	row := rh.Row(5)
	for i := 1; i <= 49; i++ {
		if c.Activate(row) {
			t.Fatalf("early mitigation at %d", i)
		}
	}
	if !c.Activate(row) {
		t.Fatal("no mitigation at 50")
	}
}

func TestCRATraffic(t *testing.T) {
	sink := &rh.CountingSink{}
	c := testutil.Must(NewCRA(testGeom(), testTRH, 256, sink)) // 4 lines, one set
	// First touch of a line: one read.
	c.Activate(rh.Row(0))
	if sink.Reads != 1 || sink.Writes != 0 {
		t.Fatalf("first touch: %d reads %d writes, want 1/0", sink.Reads, sink.Writes)
	}
	// Same line again: a hit, no traffic.
	c.Activate(rh.Row(1))
	if sink.Reads != 1 {
		t.Fatalf("hit caused a read")
	}
	// Touch 5 distinct lines: at least one dirty eviction.
	for i := 0; i < 5; i++ {
		c.Activate(rh.Row(i * craRowsPerLine))
	}
	if sink.Writes == 0 {
		t.Fatal("dirty eviction caused no writeback")
	}
	if c.Hits == 0 || c.MissFetches == 0 {
		t.Fatalf("stats: hits=%d misses=%d", c.Hits, c.MissFetches)
	}
}

func TestCRACountsClearAcrossWindows(t *testing.T) {
	c := testutil.Must(NewCRA(testGeom(), testTRH, 4096, rh.NullSink{}))
	row := rh.Row(9)
	for i := 0; i < 30; i++ {
		c.Activate(row)
	}
	c.ResetWindow()
	if got := c.Count(row); got != 0 {
		t.Fatalf("count after window reset = %d, want 0", got)
	}
	for i := 1; i <= 30; i++ {
		if c.Activate(row) {
			t.Fatalf("stale count leaked across windows (act %d)", i)
		}
	}
}

func TestCRAValidation(t *testing.T) {
	if _, err := NewCRA(testGeom(), 1, 4096, rh.NullSink{}); err == nil {
		t.Error("TRH=1 accepted")
	}
	if _, err := NewCRA(testGeom(), 100, 0, rh.NullSink{}); err == nil {
		t.Error("zero-size cache accepted")
	}
}

func TestTWiCEHammerDetected(t *testing.T) {
	tw := MustNewTWiCE(testGeom(), testTRH, 64)
	row := rh.Row(3)
	for i := 1; i <= 49; i++ {
		if tw.Activate(row) {
			t.Fatalf("early mitigation at %d", i)
		}
	}
	if !tw.Activate(row) {
		t.Fatal("no mitigation at 50")
	}
}

func TestTWiCEOverflowWhenUndersized(t *testing.T) {
	tw := MustNewTWiCE(testGeom(), testTRH, 4) // tiny table
	// Fill the table with 4 rows, then a 5th row goes untracked.
	for r := rh.Row(0); r < 5; r++ {
		tw.Activate(r)
	}
	if tw.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1", tw.Overflows)
	}
}

func TestTWiCEPrunesColdEntries(t *testing.T) {
	geom := testGeom()
	tw := MustNewTWiCE(geom, testTRH, 64)
	// One cold touch, then enough hot traffic to cross two pruning
	// intervals: the cold entry must be dropped.
	tw.Activate(rh.Row(200))
	hot := rh.Row(1)
	for i := 0; i < 2*(geom.ACTMax/16+1)+4; i++ {
		tw.Activate(hot)
	}
	if tw.Pruned == 0 {
		t.Fatal("cold entry was never pruned")
	}
}

func TestCATHammerMitigatedBeforeTRH(t *testing.T) {
	c := testutil.Must(NewCAT(testGeom(), testTRH, 1024))
	row := rh.Row(17)
	trueSince := 0
	for i := 0; i < 500; i++ {
		trueSince++
		if c.Activate(row) {
			trueSince = 0
		}
		if trueSince >= testTRH {
			t.Fatalf("row reached %d true activations without mitigation", trueSince)
		}
	}
	if c.Splits == 0 {
		t.Fatal("hammering never split the tree")
	}
	if c.UnsafeMitigations != 0 {
		t.Fatalf("well-provisioned CAT produced %d unsafe mitigations", c.UnsafeMitigations)
	}
}

func TestCATPoolExhaustionIsUnsafe(t *testing.T) {
	c := testutil.Must(NewCAT(testGeom(), testTRH, 3)) // root plus one split
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		c.Activate(rh.Row(rng.Intn(256)))
	}
	if c.UnsafeMitigations == 0 {
		t.Fatal("exhausted pool never produced an unsafe mitigation")
	}
}

// TestAllTrackersImplementInterface pins the interface contract and the
// trivial methods in one place.
func TestAllTrackersImplementInterface(t *testing.T) {
	geom := testGeom()
	trackers := []rh.Tracker{
		testutil.Must(NewGraphene(geom, testTRH)),
		testutil.Must(NewOCPR(geom, testTRH)),
		testutil.Must(NewPARA(testTRH, 1e-9, 1)),
		testutil.Must(NewCRA(geom, testTRH, 4096, rh.NullSink{})),
		MustNewTWiCE(geom, testTRH, 0),
		testutil.Must(NewCAT(geom, testTRH, 0)),
	}
	names := map[string]bool{}
	for _, tr := range trackers {
		if tr.Name() == "" || names[tr.Name()] {
			t.Fatalf("bad or duplicate name %q", tr.Name())
		}
		names[tr.Name()] = true
		if tr.SRAMBytes() <= 0 {
			t.Errorf("%s: SRAMBytes = %d", tr.Name(), tr.SRAMBytes())
		}
		if tr.Name() != "cra" && tr.MetaRows() != 0 {
			t.Errorf("%s: unexpected MetaRows %d", tr.Name(), tr.MetaRows())
		}
		if tr.ActivateMeta(0) {
			t.Errorf("%s: ActivateMeta returned true", tr.Name())
		}
		tr.Activate(rh.Row(0))
		tr.ResetWindow()
	}
}
