package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/obsv"
	"repro/internal/rh"
	"repro/internal/workload"
)

func keyConfig() Config {
	p, err := workload.ByName("parest")
	if err != nil {
		panic(err)
	}
	return Default(p)
}

func mustKey(t *testing.T, c Config) string {
	t.Helper()
	k, ok := c.CacheKey()
	if !ok {
		t.Fatalf("config unexpectedly uncacheable: %+v", c)
	}
	return k
}

func TestCacheKeyDeterministic(t *testing.T) {
	a := mustKey(t, keyConfig())
	b := mustKey(t, keyConfig())
	if a != b {
		t.Fatalf("identical configs hash differently: %s vs %s", a, b)
	}
	// Mutate-and-revert must round-trip to the same key: the hash
	// depends only on field values, never on the history of the value.
	c := keyConfig()
	c.TRH = 9999
	c.TRH = keyConfig().TRH
	if got := mustKey(t, c); got != a {
		t.Fatalf("mutate-and-revert changed the key: %s vs %s", got, a)
	}
}

func TestCacheKeyIgnoresRuntimeAttachments(t *testing.T) {
	base := mustKey(t, keyConfig())
	c := keyConfig()
	c.Ctx = context.Background()
	c.Progress = func(int64) {}
	if got := mustKey(t, c); got != base {
		t.Fatalf("Ctx/Progress changed the key: they control cancellation and watchdog reporting, not the result")
	}
	// A chaos scenario's Description is a report label; two scenarios
	// differing only in prose inject identical faults.
	c1, c2 := keyConfig(), keyConfig()
	c1.Chaos = &faults.Scenario{Name: "x", DropRefreshProb: 0.5, Description: "a"}
	c2.Chaos = &faults.Scenario{Name: "x", DropRefreshProb: 0.5, Description: "b"}
	if mustKey(t, c1) != mustKey(t, c2) {
		t.Fatalf("chaos Description changed the key")
	}
}

func TestCacheKeyUncacheable(t *testing.T) {
	c := keyConfig()
	c.Observer = noopObserver{}
	if _, ok := c.CacheKey(); ok {
		t.Fatalf("config with Observer must be uncacheable: replaying a cached result would skip its callbacks")
	}
	c = keyConfig()
	c.Trace = obsv.NewTracer(8)
	if _, ok := c.CacheKey(); ok {
		t.Fatalf("config with Tracer must be uncacheable")
	}
	c = keyConfig()
	c.Traces = make([]cpu.TraceSource, 1)
	if _, ok := c.CacheKey(); ok {
		t.Fatalf("config with external trace sources must be uncacheable: their content is opaque to the hash")
	}
}

type noopObserver struct{}

func (noopObserver) Activated(row rh.Row) {}
func (noopObserver) Mitigated(row rh.Row) {}

// TestCacheKeySensitivity drives every result-affecting field through
// a mutation and requires the key to change: a field the hash misses
// would silently replay a wrong cached result.
func TestCacheKeySensitivity(t *testing.T) {
	mutations := map[string]func(*Config){
		"Mem.Channels":        func(c *Config) { c.Mem.Channels++ },
		"Mem.RanksPerChannel": func(c *Config) { c.Mem.RanksPerChannel++ },
		"Mem.BanksPerRank":    func(c *Config) { c.Mem.BanksPerRank++ },
		"Mem.RowsPerBank":     func(c *Config) { c.Mem.RowsPerBank++ },
		"Mem.RowBytes":        func(c *Config) { c.Mem.RowBytes *= 2 },
		"Profile.Name":        func(c *Config) { c.Profile.Name += "x" },
		"Profile.Suite":       func(c *Config) { c.Profile.Suite = "other" },
		"Profile.MPKI":        func(c *Config) { c.Profile.MPKI += 0.25 },
		"Profile.UniqueRows":  func(c *Config) { c.Profile.UniqueRows++ },
		"Profile.Hot250":      func(c *Config) { c.Profile.Hot250++ },
		"Profile.ActsPerRow":  func(c *Config) { c.Profile.ActsPerRow += 0.5 },
		"Scale":               func(c *Config) { c.Scale *= 2 },
		"KeepStructSize":      func(c *Config) { c.KeepStructSize = !c.KeepStructSize },
		"Cores":               func(c *Config) { c.Cores++ },
		"TRH":                 func(c *Config) { c.TRH++ },
		"Blast":               func(c *Config) { c.Blast++ },
		"Seed":                func(c *Config) { c.Seed++ },
		"Tracker":             func(c *Config) { c.Tracker = TrackGraphene },
		"CRACacheBytes":       func(c *Config) { c.CRACacheBytes *= 2 },
		"HydraGCTEntries":     func(c *Config) { c.HydraGCTEntries += 128 },
		"HydraRCCEntries":     func(c *Config) { c.HydraRCCEntries += 128 },
		"HydraTG":             func(c *Config) { c.HydraTG += 16 },
		"HydraRandomize":      func(c *Config) { c.HydraRandomize = !c.HydraRandomize },
		"PARAFailProb":        func(c *Config) { c.PARAFailProb *= 10 },
		"STARTLLCBytes":       func(c *Config) { c.STARTLLCBytes += 4096 },
		"MINTIntervalActs":    func(c *Config) { c.MINTIntervalActs += 8 },
		"TrackMetaRows":       func(c *Config) { c.TrackMetaRows = !c.TrackMetaRows },
		"WriteFrac":           func(c *Config) { c.WriteFrac += 0.125 },
		"Burst":               func(c *Config) { c.Burst++ },
		"WindowCycles":        func(c *Config) { c.WindowCycles += 1000 },
		"Mitigation":          func(c *Config) { c.Mitigation = MitigateRowSwap },
		"Attack.set":          func(c *Config) { c.Attack = &AttackSpec{Rows: []uint32{1, 2}, Acts: 100} },
		"Chaos.set":           func(c *Config) { c.Chaos = &faults.Scenario{Name: "x", DropRefreshProb: 0.1} },
	}
	base := mustKey(t, keyConfig())
	seen := map[string]string{"": base}
	for name, mutate := range mutations {
		c := keyConfig()
		mutate(&c)
		k := mustKey(t, c)
		if k == base {
			t.Errorf("mutating %s did not change the cache key", name)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutations %s and %s collide on %s", name, prev, k)
		}
		seen[k] = name
	}

	// Within the pointer-valued fields, every inner knob must register.
	attackMuts := map[string]func(*AttackSpec){
		"Rows":      func(a *AttackSpec) { a.Rows = append(a.Rows, 99) },
		"Rows.swap": func(a *AttackSpec) { a.Rows[0], a.Rows[1] = a.Rows[1], a.Rows[0] },
		"Acts":      func(a *AttackSpec) { a.Acts++ },
	}
	for name, mutate := range attackMuts {
		c1, c2 := keyConfig(), keyConfig()
		c1.Attack = &AttackSpec{Rows: []uint32{1, 2}, Acts: 100}
		c2.Attack = &AttackSpec{Rows: []uint32{1, 2}, Acts: 100}
		mutate(c2.Attack)
		if mustKey(t, c1) == mustKey(t, c2) {
			t.Errorf("mutating Attack.%s did not change the cache key", name)
		}
	}
	chaosMuts := map[string]func(*faults.Scenario){
		"Name":             func(s *faults.Scenario) { s.Name += "x" },
		"DropRefreshProb":  func(s *faults.Scenario) { s.DropRefreshProb += 0.1 },
		"PostponeWindows":  func(s *faults.Scenario) { s.PostponeWindows += 0.5 },
		"CorruptRCTFrac":   func(s *faults.Scenario) { s.CorruptRCTFrac += 0.1 },
		"CorruptEveryActs": func(s *faults.Scenario) { s.CorruptEveryActs += 100 },
	}
	for name, mutate := range chaosMuts {
		c1, c2 := keyConfig(), keyConfig()
		c1.Chaos = &faults.Scenario{Name: "x", DropRefreshProb: 0.1, CorruptEveryActs: 10}
		c2.Chaos = &faults.Scenario{Name: "x", DropRefreshProb: 0.1, CorruptEveryActs: 10}
		mutate(c2.Chaos)
		if mustKey(t, c1) == mustKey(t, c2) {
			t.Errorf("mutating Chaos.%s did not change the cache key", name)
		}
	}
}

// TestCacheKeyCoversEveryConfigField pins the field counts of Config
// and every struct CanonicalString reaches into. Adding a field makes
// this fail on purpose: either hash the new field in CanonicalString
// (and bump CacheKeyVersion if it changes what existing configs
// compute) or add it to the documented non-result set (Ctx, Progress,
// Observer, Trace, Traces, Scenario.Description), then update the
// count here.
func TestCacheKeyCoversEveryConfigField(t *testing.T) {
	pins := []struct {
		typ  reflect.Type
		want int
	}{
		{reflect.TypeOf(Config{}), 29},
		{reflect.TypeOf(AttackSpec{}), 2},
		{reflect.TypeOf(faults.Scenario{}), 6},
		{reflect.TypeOf(dram.Config{}), 5},
		{reflect.TypeOf(workload.Profile{}), 6},
	}
	for _, p := range pins {
		if got := p.typ.NumField(); got != p.want {
			t.Errorf("%s has %d fields, CanonicalString was written against %d: "+
				"hash the new field (bumping CacheKeyVersion if semantics changed) and update this pin",
				p.typ, got, p.want)
		}
	}
}

func TestCanonicalStringCarriesVersion(t *testing.T) {
	if s := keyConfig().CanonicalString(); !strings.Contains(s, CacheKeyVersion) {
		t.Fatalf("canonical string does not embed CacheKeyVersion %q:\n%s", CacheKeyVersion, s)
	}
}
