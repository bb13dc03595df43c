package exp

import (
	"strings"
	"testing"
)

// TestChaosCampaignVerdicts runs every built-in fault scenario and
// checks the security story the campaign exists to tell: the control
// holds the guarantee, losing all victim refreshes is detected as
// degradation (never silent), and window postponement is absorbed by
// the T_RH/2 tracker margin.
func TestChaosCampaignVerdicts(t *testing.T) {
	rep, err := Chaos(Options{Scale: 64, Parallelism: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d, want one per built-in scenario (%+v)", len(rep.Rows), rep.Cells)
	}
	for _, row := range rep.Rows {
		if row.GuaranteeHeld == row.DegradationDetected {
			t.Errorf("%s: verdict must be exactly one of held/degraded: %+v", row.Scenario, row)
		}
	}

	ctrl, ok := chaosRow(rep, "none")
	if !ok || !ctrl.GuaranteeHeld {
		t.Fatalf("control scenario broken: %+v", ctrl)
	}
	if ctrl.DroppedRefreshes+ctrl.CorruptedEntries+ctrl.PostponedResets != 0 {
		t.Errorf("control injected faults: %+v", ctrl)
	}
	if ctrl.Mitigations == 0 {
		t.Errorf("control attack triggered no mitigations; campaign fixture too weak")
	}

	drop, ok := chaosRow(rep, "refresh-drop")
	if !ok || !drop.DegradationDetected {
		t.Fatalf("dropped refreshes went undetected: %+v", drop)
	}
	if drop.DroppedRefreshes == 0 || drop.Violations == 0 || drop.MaxUnmitigated < rep.TRH {
		t.Errorf("refresh-drop row inconsistent: %+v", drop)
	}

	corrupt, ok := chaosRow(rep, "rct-corruption")
	if !ok || corrupt.CorruptedEntries == 0 {
		t.Errorf("rct-corruption injected nothing: %+v", corrupt)
	}

	postpone, ok := chaosRow(rep, "refresh-postpone")
	if !ok || postpone.PostponedResets == 0 {
		t.Fatalf("refresh-postpone stretched no windows: %+v", postpone)
	}
	if !postpone.GuaranteeHeld {
		t.Errorf("T_RH/2 margin did not absorb a one-window postponement: %+v", postpone)
	}

	for _, c := range rep.Cells {
		if c.Status != "ok" {
			t.Errorf("cell %s = %s: %s", c.Key, c.Status, c.Error)
		}
	}
	out := rep.Format()
	if !strings.Contains(out, "guarantee-held") || !strings.Contains(out, "degradation-detected") {
		t.Errorf("format missing verdicts:\n%s", out)
	}
}

func TestChaosScenarioSelection(t *testing.T) {
	rep, err := Chaos(Options{Scale: 64}, []string{"none"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Scenario != "none" {
		t.Fatalf("rows = %+v", rep.Rows)
	}
	if _, err := Chaos(Options{Scale: 64}, []string{"nosuch"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// chaosRow returns the named scenario's row, if present.
func chaosRow(r *ChaosReport, scenario string) (ChaosRow, bool) {
	for _, row := range r.Rows {
		if row.Scenario == scenario {
			return row, true
		}
	}
	return ChaosRow{}, false
}
