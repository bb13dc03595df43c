package memsim

// This file is the bulk-synchronous epoch engine. The per-channel
// controllers share no timing state (channels are independent DDR4
// controllers), so a Memory can advance every channel independently up
// to an epoch horizon and only then deliver the side effects — read
// completions, activation-hook calls, refresh trace events — in one
// deterministic merge. Within an epoch a channel therefore never
// invokes a callback; it appends to its private event buffer, and the
// barrier replays the union of all buffers in (decision cycle, channel,
// emission index) order, which reproduces exactly the callback order of
// stepping the channels one global event at a time (the earliest-next
// scan with its lowest-channel tie-break).
//
// The horizon the caller may use is bounded by Lookahead: every read
// completion produced by a scheduling decision at time t lands at
// t+Lookahead or later, so an epoch no wider than Lookahead past the
// earliest pending decision cannot run past a completion a core is
// blocked on — cores wake at the barrier with their exact completion
// times and simulated time never runs backwards for them. Activation
// hooks do run up to one epoch later than under per-event stepping
// (their submissions enter the queues at the barrier), which is the
// semantic difference between this engine and the old interleaved loop;
// only the engine generation (the sim cache-key version) records the
// shift.
//
// Channels step one after another on the caller's goroutine: an epoch
// carries only one or two requests, too little work to pay for handing
// channels to other goroutines (docs/PERFORMANCE.md, "Epoch engine").

import "repro/internal/obsv"

// chanEvent is one buffered side effect of a channel decision. dec is
// the decision (step) time — the merge key — and t the payload time:
// the completion time for finish events, the activation time for hook
// events, the refresh start for trace events. Activation events carry
// the precomputed global row and request kind rather than the request,
// which may already be recycled by the time the hook replays.
type chanEvent struct {
	dec   int64
	t     int64
	r     *Request // evFinish only
	aux   int64    // evRefresh: rank
	row   uint32   // evAct: global row; evRefresh: channel id
	kind  uint8
	rkind Kind // evAct: activating request kind
}

const (
	evFinish uint8 = iota
	evAct
	evRefresh
)

// Lookahead returns the minimum delay between a scheduling decision
// and the earliest read completion it can produce (CAS latency, burst,
// and the static core-to-controller return). It is the widest epoch
// horizon past the earliest pending decision that still delivers every
// core wake-up exactly on time.
func (m *Memory) Lookahead() int64 {
	return m.cfg.Timing.TCAS + m.cfg.Timing.TBURST + m.cfg.StaticLatency
}

// RunEpoch advances every channel through all scheduling decisions
// strictly before horizon, then replays the buffered side effects in
// deterministic merge order and returns the new earliest event time.
// The caller must keep horizon within Lookahead of NextTime() (and at
// most the next tracking-window reset) for exact results; RunEpoch
// itself only requires horizon > NextTime() to make progress.
func (m *Memory) RunEpoch(horizon int64) int64 {
	m.epochs++
	for _, c := range m.channels {
		for c.nextAt < horizon {
			c.step()
		}
	}
	m.drain()
	return m.NextTime()
}

// drain replays every buffered event in (decision cycle, channel,
// emission index) order. Every channel has stopped stepping by then,
// so callbacks may freely submit new requests (to any channel) and
// release pooled requests. Buffers keep their capacity across epochs;
// the steady-state loop does not allocate.
func (m *Memory) drain() {
	for {
		var best *channel
		for _, c := range m.channels {
			if c.evHead < len(c.events) &&
				(best == nil || c.events[c.evHead].dec < best.events[best.evHead].dec) {
				best = c
			}
		}
		if best == nil {
			break
		}
		e := &best.events[best.evHead]
		best.evHead++
		switch e.kind {
		case evFinish:
			r := e.r
			e.r = nil // release the pointer; pooled requests recycle now
			if r.OnFinish != nil {
				r.OnFinish(r, e.t)
			}
			if r.pooled {
				m.sh.release(r)
			}
		case evAct:
			m.cfg.OnACT(e.row, e.rkind, e.t)
		case evRefresh:
			m.cfg.Trace.Emit(obsv.Event{Cycle: e.t, Kind: obsv.EvRefresh, Row: e.row, Aux: e.aux})
		}
	}
	for _, c := range m.channels {
		c.events = c.events[:0]
		c.evHead = 0
	}
}
