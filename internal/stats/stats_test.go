package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestGeomeanBasics(t *testing.T) {
	if g := Geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v, want 0", g)
	}
	if g := Geomean([]float64{2, 8}); !almostEqual(g, 4, 1e-12) {
		t.Fatalf("geomean(2,8) = %v, want 4", g)
	}
	if g := Geomean([]float64{1, 1, 1}); !almostEqual(g, 1, 1e-12) {
		t.Fatalf("geomean(1,1,1) = %v, want 1", g)
	}
}

func TestGeomeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("geomean of 0 should panic")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestGeomeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = 0.01 + float64(r)/1000
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := Geomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); !almostEqual(m, 2, 1e-12) {
		t.Fatalf("mean = %v, want 2", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("mean(nil) = %v, want 0", m)
	}
}

func TestSlowdownPct(t *testing.T) {
	if s := SlowdownPct(0.993); !almostEqual(s, 0.7, 1e-9) {
		t.Fatalf("slowdown(0.993) = %v, want 0.7", s)
	}
	if s := SlowdownPct(1.0); s != 0 {
		t.Fatalf("slowdown(1.0) = %v, want 0", s)
	}
}
