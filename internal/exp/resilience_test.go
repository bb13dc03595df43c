package exp

import (
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// TestSweepIsolatesPanickingVariant is the acceptance drill for the
// campaign harness: a variant whose Mutate panics must not take down
// the sweep — every other cell completes, the failure is attributed to
// its cell, and the JSON run report carries the verdict.
func TestSweepIsolatesPanickingVariant(t *testing.T) {
	o := Options{Scale: 64, Workloads: []string{"parest", "GUPS"}, Target: "resilience"}
	schemes := []Variant{
		{Name: "good", Mutate: func(c *sim.Config) {}},
		{Name: "explosive", Mutate: func(c *sim.Config) { panic("injected fault: variant exploded") }},
	}
	rep, err := Sweep(o, "resilience drill", schemes)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Norm["good"]); n != 2 {
		t.Fatalf("healthy variant completed %d/2 cells", n)
	}
	if n := len(rep.Norm["explosive"]); n != 0 {
		t.Fatalf("panicking variant produced %d results", n)
	}
	failed := FailedCells(rep.Cells)
	if len(failed) != 2 {
		t.Fatalf("failed cells = %+v, want the 2 explosive ones", failed)
	}
	for _, c := range failed {
		if !strings.HasPrefix(c.Key, "resilience/explosive/") {
			t.Errorf("failure attributed to wrong cell %q", c.Key)
		}
		if !c.Panicked || !strings.Contains(c.Error, "injected fault: variant exploded") {
			t.Errorf("cell %s: panicked=%v error=%q", c.Key, c.Panicked, c.Error)
		}
	}
	if out := rep.Format(); !strings.Contains(out, "FAILED CELLS (2)") {
		t.Errorf("Format does not flag the failed cells:\n%s", out)
	}

	// The machine-readable run report must record the same verdicts and
	// still validate against the hydra-run-report/v1 schema.
	report := BuildReport("resilience", o, rep, time.Second)
	if err := report.Validate(); err != nil {
		t.Fatalf("run report invalid: %v", err)
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	js := string(data)
	if !strings.Contains(js, `"status":"failed"`) || !strings.Contains(js, "injected fault: variant exploded") {
		t.Errorf("JSON run report missing the failed-cell verdict:\n%s", js)
	}
}

// sweepCountingStarts runs a sweep with a private event bus and returns
// the report plus how many times each cell entered a worker.
func sweepCountingStarts(t *testing.T, o Options, title string, schemes []Variant) (*PerfReport, map[string]int) {
	t.Helper()
	bus := harness.NewBus(0)
	// Buffered well past the few events a small sweep publishes, so
	// none is dropped before the drain below (checked via Dropped).
	ch, _ := bus.Subscribe(1<<12, false)
	o.Bus = bus
	rep, err := Sweep(o, title, schemes)
	bus.Close()
	if err != nil {
		t.Fatal(err)
	}
	starts := map[string]int{}
	for e := range ch {
		if e.Kind == harness.EvStarted {
			starts[e.Key]++
		}
	}
	if d := bus.Dropped(); d > 0 {
		t.Fatalf("bus dropped %d events", d)
	}
	return rep, starts
}

// TestSweepCacheResume drives resume over the one durable store, the
// cache directory: a first pass with a broken variant fails its cells
// after exactly one run each (no retry, no reseed) and caches the
// healthy baseline cells; a second pass over the same directory, with
// the variant fixed, simulates only the previously failed cells.
func TestSweepCacheResume(t *testing.T) {
	dir := t.TempDir()
	o := Options{Scale: 64, Workloads: []string{"parest", "GUPS"}, Target: "resume"}

	o.Cache = newCache(t, dir)
	rep1, starts1 := sweepCountingStarts(t, o, "pass 1", []Variant{
		{Name: "flaky", Mutate: func(c *sim.Config) { panic("breaks on the first pass") }},
	})
	failed := FailedCells(rep1.Cells)
	if len(failed) != 2 {
		t.Fatalf("pass 1 failed cells = %+v, want the 2 flaky ones", failed)
	}
	for _, c := range failed {
		if !strings.HasPrefix(c.Key, "resume/flaky/") || !c.Panicked {
			t.Errorf("pass 1: unexpected failure %+v", c)
		}
	}
	for _, c := range rep1.Cells {
		if n := starts1[c.Key]; n != 1 {
			t.Errorf("pass 1: cell %s ran %d times, want exactly 1", c.Key, n)
		}
	}
	if rep1.Cache.Stores != 2 { // the two baseline cells; failures store nothing
		t.Fatalf("pass 1 stored %d cells, want 2 (cache %+v)", rep1.Cache.Stores, rep1.Cache)
	}

	// Second pass from a fresh cache instance over the same directory:
	// only the two previously failed cells may run.
	o.Cache = newCache(t, dir)
	rep2, starts2 := sweepCountingStarts(t, o, "pass 2", []Variant{
		{Name: "flaky", Mutate: func(c *sim.Config) {}},
	})
	for _, c := range rep2.Cells {
		wantStarts, wantStatus := 0, obsv.CellCached
		if strings.HasPrefix(c.Key, "resume/flaky/") {
			wantStarts, wantStatus = 1, obsv.CellOK
		}
		if starts2[c.Key] != wantStarts || c.Status != wantStatus {
			t.Errorf("pass 2: cell %s ran %d times with status %q, want %d and %q",
				c.Key, starts2[c.Key], c.Status, wantStarts, wantStatus)
		}
	}
	if rep2.Cache.DiskHits != 2 {
		t.Fatalf("pass 2 disk hits = %d, want the 2 baseline cells", rep2.Cache.DiskHits)
	}
	if n := len(rep2.Norm["flaky"]); n != 2 {
		t.Fatalf("pass 2 completed %d/2 flaky cells", n)
	}
}

// TestTracedSweepNeverReplays pins that tracing bypasses the result
// cache: a traced sweep run twice over one cache directory records one
// EvRunStart per cell on both passes, so the second trace is as
// complete as the first instead of silently missing every cell the
// first pass stored.
func TestTracedSweepNeverReplays(t *testing.T) {
	dir := t.TempDir()
	schemes := []Variant{{Name: "hydra", Mutate: func(c *sim.Config) { c.Tracker = sim.TrackHydra }}}
	want := []string{"baseline/GUPS", "baseline/parest", "hydra/GUPS", "hydra/parest"}
	for pass := 1; pass <= 2; pass++ {
		o := Options{
			Scale: 64, Workloads: []string{"parest", "GUPS"}, Target: "traced",
			Cache: newCache(t, dir), Trace: obsv.NewTracer(1 << 20),
		}
		rep, err := Sweep(o, "traced", schemes)
		if err != nil {
			t.Fatal(err)
		}
		if d := o.Trace.Dropped(); d > 0 {
			t.Fatalf("pass %d: trace ring dropped %d events; raise its capacity", pass, d)
		}
		var runs []string
		for _, e := range o.Trace.Events() {
			if e.Kind == obsv.EvRunStart {
				runs = append(runs, e.Tag)
			}
		}
		sort.Strings(runs)
		if !slices.Equal(runs, want) {
			t.Fatalf("pass %d: traced runs %v, want one per cell %v", pass, runs, want)
		}
		if n := countStatus(rep.Cells, obsv.CellOK); n != len(want) {
			t.Fatalf("pass %d: %d cells simulated, want all %d (cells %+v)", pass, n, len(want), rep.Cells)
		}
	}
}
