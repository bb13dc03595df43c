// Package stats provides the small statistical helpers the evaluation
// harness needs: geometric means over normalized performance and
// percentage formatting matching the paper's figures.
package stats

import (
	"fmt"
	"math"
)

// Geomean returns the geometric mean of xs. It returns 0 for an empty
// slice and panics if any value is non-positive, since a non-positive
// normalized performance indicates a harness bug.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geomean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// SlowdownPct converts a normalized performance (1.0 = baseline) into
// the slowdown percentage the paper reports: 0.993 -> 0.7 (%).
func SlowdownPct(normPerf float64) float64 {
	return (1 - normPerf) * 100
}
