package track

import (
	"fmt"
	"math"

	"repro/internal/rh"
)

// PARA is the stateless probabilistic tracker of Kim et al. (ISCA
// 2014): every activation triggers a mitigation with probability p.
// There is no guaranteed detection, only a statistical one, and p must
// grow as T_RH shrinks, which is why the paper dismisses it at
// ultra-low thresholds (Section 7.3).
type PARA struct {
	p       float64
	pFixed  uint64 // p scaled to 2^32 for a branch-free comparison
	rng     splitMix64
	trh     int
	failure float64

	// Mitigations counts mitigations issued over the tracker lifetime.
	Mitigations int64
}

type splitMix64 struct{ state uint64 }

func (s *splitMix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

var _ rh.Tracker = (*PARA)(nil)

// NewPARA creates a PARA tracker whose probability is derived from the
// target T_RH and a per-row-per-window failure probability: p solves
// (1-p)^TRH = failProb, i.e. the chance that a row survives T_RH
// activations without a single mitigation.
func NewPARA(trh int, failProb float64, seed uint64) (*PARA, error) {
	if trh <= 1 {
		return nil, fmt.Errorf("track: TRH must exceed 1, got %d", trh)
	}
	if failProb <= 0 || failProb >= 1 {
		return nil, fmt.Errorf("track: failProb must be in (0,1), got %v", failProb)
	}
	p := 1 - math.Pow(failProb, 1/float64(trh))
	return &PARA{
		p:       p,
		pFixed:  uint64(p * float64(1<<32)),
		rng:     splitMix64{state: seed},
		trh:     trh,
		failure: failProb,
	}, nil
}

// Name implements rh.Tracker.
func (p *PARA) Name() string { return "para" }

// Probability returns the per-activation mitigation probability.
func (p *PARA) Probability() float64 { return p.p }

// Activate implements rh.Tracker.
func (p *PARA) Activate(rh.Row) bool {
	if p.rng.next()&0xFFFFFFFF < p.pFixed {
		p.Mitigations++
		return true
	}
	return false
}

// ActivateMeta implements rh.Tracker; PARA has no DRAM metadata.
func (p *PARA) ActivateMeta(int) bool { return false }

// MetaRows implements rh.Tracker.
func (p *PARA) MetaRows() int { return 0 }

// ResetWindow implements rh.Tracker; PARA is stateless.
func (p *PARA) ResetWindow() {}

// SRAMBytes implements rh.Tracker: PARA needs only an RNG.
func (p *PARA) SRAMBytes() int { return 8 }
