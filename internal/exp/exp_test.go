package exp

import (
	"strings"
	"testing"
)

// fastOptions keeps harness tests quick: a handful of representative
// workloads at a heavy footprint scale.
func fastOptions() Options {
	return Options{
		Scale:     64,
		Workloads: []string{"parest", "bwaves", "GUPS", "leela"},
	}
}

func TestFigure5ShapeHolds(t *testing.T) {
	rep, err := Figure5(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]float64{}
	for _, s := range rep.Schemes {
		all[s] = rep.SuiteGeomeans(s)["ALL"]
	}
	t.Logf("ALL geomeans: %v", all)
	if all["graphene"] < 0.97 {
		t.Errorf("graphene = %.3f, want ~1.0", all["graphene"])
	}
	if all["hydra"] < 0.90 || all["hydra"] > 1.001 {
		t.Errorf("hydra = %.3f, want slightly below 1.0", all["hydra"])
	}
	if all["cra-64KB"] >= all["hydra"] {
		t.Errorf("CRA (%.3f) should be worse than Hydra (%.3f)", all["cra-64KB"], all["hydra"])
	}
	if out := rep.Format(); !strings.Contains(out, "GEO:ALL") || !strings.Contains(out, "parest") {
		t.Errorf("format missing rows:\n%s", out)
	}
}

func TestFigure2CacheSizeMonotonicity(t *testing.T) {
	// Cache-sensitive hot workloads at a moderate scale: the regime
	// where the paper's Figure 2 trend (bigger metadata cache, less
	// slowdown) is meaningful. Streaming workloads whose footprint
	// dwarfs every cache show a small non-monotonicity from writeback
	// row-locality, noted in EXPERIMENTS.md.
	opts := Options{Scale: 16, Workloads: []string{"parest", "xz"}}
	rep, err := Figure2(opts)
	if err != nil {
		t.Fatal(err)
	}
	g64 := rep.SuiteGeomeans("cra-64KB")["ALL"]
	g256 := rep.SuiteGeomeans("cra-256KB")["ALL"]
	t.Logf("cra 64KB=%.3f 256KB=%.3f", g64, g256)
	if g256 < g64-0.02 {
		t.Errorf("larger metadata cache worse: 64KB=%.3f 256KB=%.3f", g64, g256)
	}
	if g64 > 0.99 {
		t.Errorf("CRA-64KB shows no slowdown (%.3f); motivation study broken", g64)
	}
}

func TestFigure6DistributionSane(t *testing.T) {
	rep, err := Figure6(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	gct, rcc, rct := rep.Averages()
	t.Logf("avg: gct=%.3f rcc=%.3f rct=%.3f", gct, rcc, rct)
	if s := gct + rcc + rct; s < 0.999 || s > 1.001 {
		t.Fatalf("fractions sum to %.4f", s)
	}
	if gct < 0.5 {
		t.Errorf("GCT-only fraction %.3f; expected the GCT to dominate", gct)
	}
	if rct > rcc {
		t.Errorf("RCT fraction (%.3f) above RCC (%.3f); cache should absorb most", rct, rcc)
	}
	if out := rep.Format(); !strings.Contains(out, "AVERAGE") {
		t.Error("format missing average row")
	}
}

func TestFigure7ThresholdSensitivity(t *testing.T) {
	rep, err := Figure7(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	all500 := rep.SlowdownPct["TRH=500"]["ALL"]
	all125 := rep.SlowdownPct["TRH=125"]["ALL"]
	t.Logf("slowdown: 500=%.2f%% 125=%.2f%%", all500, all125)
	if all125 < all500 {
		t.Errorf("slowdown at TRH=125 (%.2f%%) below TRH=500 (%.2f%%)", all125, all500)
	}
	if out := rep.Format(); !strings.Contains(out, "TRH=250") {
		t.Error("format missing sweep point")
	}
}

func TestFigure8AblationShape(t *testing.T) {
	rep, err := Figure8(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	full := rep.SuiteGeomeans("hydra")["ALL"]
	noRCC := rep.SuiteGeomeans("hydra-norcc")["ALL"]
	noGCT := rep.SuiteGeomeans("hydra-nogct")["ALL"]
	t.Logf("norm perf: full=%.3f norcc=%.3f nogct=%.3f", full, noRCC, noGCT)
	if noGCT >= noRCC || noRCC > full+0.001 {
		t.Errorf("ablation ordering broken: full=%.3f norcc=%.3f nogct=%.3f", full, noRCC, noGCT)
	}
}

func TestFigure9GCTSizeSweep(t *testing.T) {
	opts := fastOptions()
	opts.Workloads = []string{"parest", "GUPS"}
	rep, err := Figure9(opts)
	if err != nil {
		t.Fatal(err)
	}
	small := rep.SlowdownPct["16K"]["ALL"]
	large := rep.SlowdownPct["64K"]["ALL"]
	t.Logf("slowdown: 16K=%.2f%% 64K=%.2f%%", small, large)
	if large > small+0.5 {
		t.Errorf("larger GCT worse: 16K=%.2f%% 64K=%.2f%%", small, large)
	}
}

func TestFigure10TGSweepRuns(t *testing.T) {
	opts := fastOptions()
	opts.Workloads = []string{"parest", "GUPS"}
	rep, err := Figure10(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 4 {
		t.Fatalf("points = %v", rep.Points)
	}
	for _, pt := range rep.Points {
		if _, ok := rep.SlowdownPct[pt]["ALL"]; !ok {
			t.Fatalf("missing ALL for %s", pt)
		}
	}
}

func TestTable3Validation(t *testing.T) {
	opts := fastOptions()
	opts.Workloads = []string{"parest", "GUPS"}
	rep, err := Table3(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		sp := row.Profile.Scaled(opts.Scale)
		if row.Measured.UniqueRows == 0 {
			t.Fatalf("%s: empty characterization", row.Profile.Name)
		}
		ratio := float64(row.Measured.UniqueRows) / float64(sp.UniqueRows)
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("%s: unique rows ratio %.2f", row.Profile.Name, ratio)
		}
	}
	if out := rep.Format(); !strings.Contains(out, "parest") {
		t.Error("format missing workload")
	}
}

func TestStaticTablesRender(t *testing.T) {
	for name, text := range map[string]string{
		"table1": Table1Text(),
		"table2": Table2Text(),
		"table4": Table4Text(),
		"table5": Table5Text(0),
	} {
		if len(text) < 100 {
			t.Errorf("%s suspiciously short:\n%s", name, text)
		}
	}
	if !strings.Contains(Table1Text(), "32000") {
		t.Error("table1 missing 32000 row")
	}
	if !strings.Contains(Table4Text(), "56.5 KB") {
		t.Error("table4 missing total")
	}
}

func TestPowerReport(t *testing.T) {
	opts := fastOptions()
	opts.Workloads = []string{"parest", "bwaves"}
	rep, err := Power(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgPct < 0 || rep.AvgPct > 10 {
		t.Fatalf("avg DRAM overhead = %v%%", rep.AvgPct)
	}
	if rep.SRAM.TotalMW() != 18.6 {
		t.Fatalf("SRAM power = %v", rep.SRAM.TotalMW())
	}
	if out := rep.Format(); !strings.Contains(out, "18.6 mW") {
		t.Error("format missing SRAM power")
	}
}

func TestOptionsValidation(t *testing.T) {
	opts := Options{Workloads: []string{"nosuch"}}
	if _, err := Figure5(opts); err == nil {
		t.Fatal("unknown workload accepted")
	}
	d := Options{}.withDefaults()
	if d.Scale != 16 || d.TRH != 500 || d.Parallelism <= 0 {
		t.Fatalf("defaults = %+v", d)
	}
}
