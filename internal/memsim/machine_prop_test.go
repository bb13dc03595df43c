package memsim

// Property-based scheduler equivalence: where differential_test.go
// replays six fixed fuzz seeds, this machine *generates* adversarial
// schedules — write bursts that trip the drain hysteresis, hot-row runs
// against a starving victim, clock gaps landing on refresh boundaries,
// same-cycle arrival pileups, meta storms past the pressure threshold —
// together with generated queue-cap configurations, and requires the
// indexed scheduler and the linear-scan reference to produce
// bitwise-identical event logs and statistics, with the live-bank
// bitset checked against the buckets after every step. A divergence
// shrinks to a minimal schedule.

import (
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/proptest"
)

// schedSegment appends one generated schedule segment to specs,
// advancing the arrival clock, and returns the updated slice and clock.
type segmentFunc func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64)

// specAt builds one request spec for a drawn location.
func specAt(t *proptest.T, mem dram.Config, kind Kind, row int, clock int64) reqSpec {
	loc := dram.Loc{
		Channel: proptest.IntRange(0, mem.Channels-1).Draw(t, "ch"),
		Rank:    proptest.IntRange(0, mem.RanksPerChannel-1).Draw(t, "rank"),
		Bank:    proptest.IntRange(0, mem.BanksPerRank-1).Draw(t, "bank"),
		Row:     row,
		Col:     proptest.IntRange(0, mem.RowBytes/64-1).Draw(t, "col"),
	}
	return reqSpec{line: mem.Encode(loc), kind: kind, arrive: clock}
}

// schedRows is the small row set every segment draws from, so row hits,
// conflicts and starvation all occur within a short schedule.
var schedRows = []int{0, 37, 74, 111, 148, 185}

func schedSegments() map[string]segmentFunc {
	return map[string]segmentFunc{
		// A dense run of writes to a few rows: trips DrainHi, then the
		// hysteresis exit path on the way back down.
		"write-burst": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			n := proptest.IntRange(4, 40).Draw(t, "n")
			row := proptest.SampledFrom(schedRows).Draw(t, "row")
			for i := 0; i < n; i++ {
				specs = append(specs, specAt(t, mem, WriteReq, row, clock))
				clock += int64(proptest.IntRange(0, 3).Draw(t, "gap"))
			}
			return specs, clock
		},
		// One early read to a cold row, then a flood of row-hits
		// elsewhere: the victim must be rescued by the starvation rule
		// (oldest seq among starving), not left behind the hit chain.
		"starve": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			specs = append(specs, specAt(t, mem, ReadReq, 185, clock))
			n := proptest.IntRange(8, 60).Draw(t, "n")
			row := proptest.SampledFrom(schedRows[:2]).Draw(t, "row")
			for i := 0; i < n; i++ {
				specs = append(specs, specAt(t, mem, ReadReq, row, clock))
				clock += int64(proptest.IntRange(0, 2).Draw(t, "gap"))
			}
			return specs, clock
		},
		// A row-hit stream on one bank, arriving faster than the bus
		// serves it, behind one older conflicting request of the same
		// class, for longer than starvationAge. For the first
		// starvationAge cycles no aging entry can be starving and
		// starvingPick returns at once; after that the victim is
		// rescued from behind the hits. Metadata reads are never
		// refused, so their variant also grows the queue past the
		// depth histogram's last bound.
		"starve-long": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			kind := proptest.SampledFrom([]Kind{ReadReq, MetaRead, WriteReq}).Draw(t, "kind")
			victim := specAt(t, mem, kind, 185, clock)
			specs = append(specs, victim)
			loc := mem.Decode(victim.line)
			loc.Row = proptest.SampledFrom(schedRows[:2]).Draw(t, "row")
			n := proptest.IntRange(1100, 1600).Draw(t, "n")
			for i := 0; i < n; i++ {
				clock += int64(proptest.IntRange(2, 6).Draw(t, "gap"))
				loc.Col = i % mem.LinesPerRow()
				specs = append(specs, reqSpec{line: mem.Encode(loc), kind: kind, arrive: clock})
			}
			return specs, clock
		},
		// Jump the clock to just around the next tREFI boundary so
		// requests arrive while a refresh is due or in flight.
		"refresh-collide": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			tm := DDR4()
			next := (clock/tm.TREFI + 1) * tm.TREFI
			clock = next + int64(proptest.IntRange(-40, 40).Draw(t, "skew"))
			if clock < 0 {
				clock = 0
			}
			n := proptest.IntRange(2, 12).Draw(t, "n")
			for i := 0; i < n; i++ {
				row := proptest.SampledFrom(schedRows).Draw(t, "row")
				specs = append(specs, specAt(t, mem, ReadReq, row, clock))
			}
			return specs, clock
		},
		// A pileup of mixed requests all arriving on the same cycle:
		// tie-breaks must be decided by seq alone.
		"same-cycle": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			n := proptest.IntRange(3, 24).Draw(t, "n")
			kinds := []Kind{ReadReq, WriteReq, MetaRead, MetaWrite, MitigAct}
			for i := 0; i < n; i++ {
				k := proptest.SampledFrom(kinds).Draw(t, "kind")
				row := proptest.SampledFrom(schedRows).Draw(t, "row")
				specs = append(specs, specAt(t, mem, k, row, clock))
			}
			return specs, clock
		},
		// Enough internal meta reads to cross the metaPressure
		// promotion threshold.
		"meta-storm": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			n := proptest.IntRange(metaPressure+1, metaPressure+40).Draw(t, "n")
			row := proptest.SampledFrom(schedRows).Draw(t, "row")
			for i := 0; i < n; i++ {
				specs = append(specs, specAt(t, mem, MetaRead, row, clock))
				clock += int64(proptest.IntRange(0, 1).Draw(t, "gap"))
			}
			return specs, clock
		},
		// Background mixed traffic with small gaps, the fuzzStream
		// texture, plus occasional mitigation activates.
		"mixed": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			n := proptest.IntRange(5, 50).Draw(t, "n")
			kinds := []Kind{ReadReq, ReadReq, ReadReq, WriteReq, MetaRead, MetaWrite, MitigAct}
			for i := 0; i < n; i++ {
				k := proptest.SampledFrom(kinds).Draw(t, "kind")
				row := proptest.SampledFrom(schedRows).Draw(t, "row")
				specs = append(specs, specAt(t, mem, k, row, clock))
				clock += int64(proptest.IntRange(0, 6).Draw(t, "gap"))
			}
			return specs, clock
		},
		// Idle gap: lets queues fully drain so the next segment starts
		// from an empty controller.
		"idle": func(t *proptest.T, mem dram.Config, specs []reqSpec, clock int64) ([]reqSpec, int64) {
			clock += int64(proptest.IntRange(100, 5000).Draw(t, "gap"))
			return specs, clock
		},
	}
}

// genSchedConfig draws a controller configuration: either the default
// or a tightened one where refusals, drains and starvation are common.
func genSchedConfig(t *proptest.T, mem dram.Config) Config {
	cfg := DefaultConfig(mem)
	if proptest.Bool().Draw(t, "tight") {
		cfg.ReadQCap = proptest.IntRange(2, 16).Draw(t, "readQCap")
		cfg.WriteQCap = proptest.IntRange(3, 24).Draw(t, "writeQCap")
		cfg.DrainHi = proptest.IntRange(2, cfg.WriteQCap).Draw(t, "drainHi")
		cfg.DrainLo = proptest.IntRange(0, cfg.DrainHi-1).Draw(t, "drainLo")
	}
	return cfg
}

// segmentNames returns the names of every generated segment, sorted:
// SampledFrom needs a deterministic order, and map iteration is not.
func segmentNames() []string {
	var names []string
	for name := range schedSegments() {
		names = append(names, name)
	}
	sortStrings(names)
	return names
}

// schedulerEquivProp draws its segments from segNames.
func schedulerEquivProp(segNames []string) func(*proptest.T) {
	mem := dram.Baseline()
	segments := schedSegments()
	return func(t *proptest.T) {
		nseg := proptest.IntRange(1, 10).Draw(t, "segments")
		var specs []reqSpec
		clock := int64(0)
		for s := 0; s < nseg; s++ {
			name := proptest.SampledFrom(segNames).Draw(t, "segment")
			specs, clock = segments[name](t, mem, specs, clock)
		}
		if len(specs) == 0 {
			return
		}

		cfgA := genSchedConfig(t, mem)
		idx := New(cfgA)
		got := driveStream(checkedMemory{idx, t}, func(h func(uint32, Kind, int64)) { cfgA.OnACT = h; idx.cfg.OnACT = h }, specs)

		cfgB := cfgA
		lin := newLinMemory(cfgB)
		want := driveStream(lin, func(h func(uint32, Kind, int64)) { cfgB.OnACT = h; lin.cfg.OnACT = h }, specs)

		if len(got) != len(want) {
			t.Fatalf("%d events vs %d in reference (%d specs)", len(got), len(want), len(specs))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("event %d of %d diverged:\nindexed:   %+v\nreference: %+v",
					i, len(got), got[i], want[i])
			}
		}
		if a, b := idx.Stats(), lin.Stats(); !reflect.DeepEqual(a, b) {
			t.Fatalf("stats diverged:\nindexed:   %+v\nreference: %+v", a, b)
		}
	}
}

// checkedMemory checks the scheduler index's invariants after every
// Submit and every step of the indexed scheduler.
type checkedMemory struct {
	*Memory
	t *proptest.T
}

func (m checkedMemory) Submit(r *Request) bool {
	ok := m.Memory.Submit(r)
	m.check()
	return ok
}

func (m checkedMemory) StepNext() int64 {
	next := m.Memory.StepNext()
	m.check()
	return next
}

// check asserts the live-bank bitset matches the buckets: bit b is set
// exactly when bucket b holds a live request.
func (m checkedMemory) check() {
	for _, c := range m.channels {
		for qi, q := range [...]*reqQueue{&c.mitigQ, &c.readQ, &c.metaQ, &c.writeQ} {
			for b := range q.buckets {
				set := q.liveSet[b>>6]&(1<<(b&63)) != 0
				if set != (q.buckets[b].live > 0) {
					m.t.Fatalf("channel %d queue %d bank %d: liveSet bit %v, bucket holds %d live",
						c.id, qi, b, set, q.buckets[b].live)
				}
			}
		}
	}
}

// driveEpochs is driveStream's counterpart for the bulk-synchronous
// engine: it submits the specs in arrival order, advancing the memory
// with lookahead-bounded RunEpoch calls instead of per-event Step, then
// drains it and returns the observable event log. Both drivers advance
// exactly the set of decisions strictly before each arrival, so their
// logs are comparable event for event.
func driveEpochs(m *Memory, specs []reqSpec) []schedEvent {
	var events []schedEvent
	m.cfg.OnACT = func(row uint32, kind Kind, at int64) {
		events = append(events, schedEvent{row: row, kind: kind, t: at})
	}
	onFin := func(r *Request, f int64) {
		events = append(events, schedEvent{fin: true, id: r.User, t: f})
	}
	advance := func(bound int64) {
		for t := m.NextTime(); t < bound; {
			h := t + m.Lookahead()
			if h > bound {
				h = bound
			}
			t = m.RunEpoch(h)
		}
	}
	for i, sp := range specs {
		advance(sp.arrive)
		r := &Request{Line: sp.line, Kind: sp.kind, Arrive: sp.arrive, User: int64(i), OnFinish: onFin}
		if !m.Submit(r) {
			events = append(events, schedEvent{refuse: true, id: int64(i)})
		}
	}
	advance(Infinity)
	return events
}

// epochEquivProp is the per-event ≡ epoch equivalence family: a
// generated segment mix is run two ways — per-event Step (the old
// synchronous semantics) and epochs — and both must produce
// bitwise-identical event logs and statistics. The Step reference pins
// the epoch engine's merge order to the global earliest-event order
// (the hooks here only log, so the engines' feedback semantics
// coincide). Runs under -race in `make check` (quick tier) and
// `make soak` (thorough).
func epochEquivProp(tb testing.TB) func(*proptest.T) {
	segments := schedSegments()
	segNames := segmentNames()
	return func(t *proptest.T) {
		mem := dram.Baseline()
		mem.Channels = []int{1, 2, 4}[proptest.IntRange(0, 2).Draw(t, "channels")]
		nseg := proptest.IntRange(1, 10).Draw(t, "segments")
		var specs []reqSpec
		clock := int64(0)
		for s := 0; s < nseg; s++ {
			name := proptest.SampledFrom(segNames).Draw(t, "segment")
			specs, clock = segments[name](t, mem, specs, clock)
		}
		if len(specs) == 0 {
			return
		}

		cfgA := genSchedConfig(t, mem)
		stepM := New(cfgA)
		ref := driveStream(stepM, func(h func(uint32, Kind, int64)) { stepM.cfg.OnACT = h }, specs)

		epM := New(cfgA)
		epoch := driveEpochs(epM, specs)

		compareLogs(t, "epoch", epoch, "step", ref)
		// The Step reference never runs epochs; mask the counter for
		// the cross-engine comparison.
		epStats := epM.Stats()
		epStats.Epochs = 0
		if stepStats := stepM.Stats(); !reflect.DeepEqual(epStats, stepStats) {
			t.Fatalf("stats diverged across engines:\nepoch: %+v\nstep:  %+v", epStats, stepStats)
		}
	}
}

func compareLogs(t *proptest.T, gotName string, got []schedEvent, wantName string, want []schedEvent) {
	if len(got) != len(want) {
		t.Fatalf("%s produced %d events, %s %d", gotName, len(got), wantName, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d of %d diverged:\n%s: %+v\n%s: %+v",
				i, len(got), gotName, got[i], wantName, want[i])
		}
	}
}

// TestEpochEquivalenceMachine is the generated per-event ≡ epoch
// equivalence suite for the epoch engine (docs/TESTING.md).
func TestEpochEquivalenceMachine(t *testing.T) {
	proptest.Check(t, epochEquivProp(t))
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestSchedulerEquivalenceMachine is the generated counterpart of
// TestDifferentialSchedulerEquivalence.
func TestSchedulerEquivalenceMachine(t *testing.T) {
	proptest.Check(t, schedulerEquivProp(segmentNames()))
}

// leapfrogSegments is the segment list TestRegressionOutOfOrderArrivalLeapfrog's
// trace was recorded against. SampledFrom picks by index, so replaying
// against a longer list would decode the trace into other segments.
var leapfrogSegments = []string{
	"idle", "meta-storm", "mixed", "refresh-collide", "same-cycle", "starve", "write-burst",
}

// TestRegressionOutOfOrderArrivalLeapfrog replays the machine's
// shrunken catch: three same-bank read clusters whose arrival
// timestamps go *backward* (the third cluster lands 39 cycles before
// the second). The indexed scheduler promoted requests out of its
// future heap in (Arrive, seq) order, so the late-submitted cluster
// reached the bank bucket first and leapfrogged the earlier-submitted
// one, while the linear reference broke the tie by submission order —
// completions diverged. Fixed in bucket.push: an out-of-order
// promotion now bubbles into seq position, so FR-FCFS/FCFS tie-breaks
// see submission order no matter when a request left the future heap.
// (An earlier fix clamped arrivals to be per-channel monotonic at
// submit, but that redefined arrival semantics: the throttle policy
// legitimately submits future-dated requests, and the clamp dragged
// every later submission on the channel up to the throttled row's
// release time — channel-wide stalling instead of per-row rate
// limiting.) The trace must replay clean.
func TestRegressionOutOfOrderArrivalLeapfrog(t *testing.T) {
	proptest.ReplayTrace(t, []uint64{
		0x193b4e4579833cc7, 0x5ffdfcaec752799e, 0x0, 0xf0db6269e38c10ce,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x36d2a6c9e2226551, 0x421d7c34f37fe9c5, 0xa0e583a90329a243,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0,
		0x8fa04da357c56fe,
	}, schedulerEquivProp(leapfrogSegments))
}
