// Package harness is the resilient campaign runner: it executes sweep
// cells (one simulator configuration each) through a bounded worker
// pool and keeps the campaign alive when individual cells misbehave.
//
// Four failure modes are contained per cell, so a sweep of N cells
// always yields N verdicts:
//
//   - panics are recovered and converted to a *PanicError carrying the
//     panicking value and stack; the other cells keep running;
//   - a progress watchdog cancels cells whose simulated-cycle counter
//     stops advancing for longer than a stall deadline, and a wall-clock
//     timeout bounds each cell outright;
//   - failed cells are retried with capped backoff; the attempt number
//     is passed back in so the caller can reseed, separating
//     seed-dependent corner cases from deterministic bugs;
//   - completed cells are written to an optional JSON checkpoint
//     (see Checkpoint), so an interrupted campaign resumes by
//     recomputing only the missing cells.
//
// Cells cooperate through two channels: they honor ctx cancellation
// (the simulator polls it between events) and report simulated cycles
// via Env.Progress so the watchdog can tell "slow" from "stuck".
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStalled is the cancellation cause installed by the watchdog when
// a cell's progress counter stops advancing. Test with errors.Is on
// the cell error.
var ErrStalled = errors.New("harness: progress stalled")

// PanicError is a recovered cell panic, preserved with its stack.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("harness: cell panicked: %v", e.Value)
}

// Env is the per-attempt environment the harness hands to a cell.
type Env struct {
	// Attempt is the 0-based attempt number. Retried cells should fold
	// it into their RNG seed so a seed-dependent failure is not simply
	// replayed.
	Attempt int
	// Progress reports the cell's simulated-cycle counter. The watchdog
	// declares a stall when the reported value stops increasing — calls
	// repeating the same value do not keep a cell alive. Safe to call
	// from the cell's goroutine only; never nil.
	Progress func(cycle int64)
}

// Cell is one unit of campaign work.
type Cell struct {
	// Key identifies the cell in checkpoints and results; campaign keys
	// must be unique. The experiment layer uses "target/variant/workload".
	Key string
	// Run computes the cell. It must honor ctx cancellation and should
	// report progress via env.Progress. The returned value must be
	// JSON-marshalable when checkpointing is enabled.
	Run func(ctx context.Context, env Env) (any, error)
	// CacheKey is the cell's content-addressed identity — a hash of
	// everything that determines its outcome (see sim.Config.CacheKey).
	// Empty means uncacheable: the cell always runs. Unlike Key, cache
	// keys may repeat within a campaign (identical cells dedupe against
	// each other: the first computes, the rest replay).
	CacheKey string
	// Tags are opaque labels copied into every CellEvent the campaign
	// publishes for this cell (the experiment layer sets scheme,
	// workload and seed). Nil is fine; the harness never reads them.
	Tags map[string]string
	// EstCost is a static relative cost estimate used to order work
	// longest-first when the cache has no recorded timing for this cell.
	// Unitless; only comparisons between cells of one campaign matter.
	EstCost float64
}

// CellResult is the verdict for one cell.
type CellResult struct {
	Key      string
	Value    any   // nil when Err != nil
	Err      error // nil on success
	Attempts int   // attempts actually made (0 when restored)
	Panicked bool  // at least one attempt panicked
	Stalled  bool  // at least one attempt was killed by the watchdog
	Restored bool  // value came from the checkpoint; Run never called
	Cached   bool  // value replayed from the result cache; Run never called
	Elapsed  time.Duration
	// Cycles is the last simulated-cycle value the cell reported via
	// Env.Progress — how far a failed cell got, and a harness-level
	// cross-check for completed ones. Tracked only when the campaign
	// has a Bus or a stall watchdog; 0 otherwise (and for cached or
	// restored cells, which never run).
	Cycles int64
}

// Options tunes a campaign.
type Options struct {
	// Workers bounds pool concurrency (default GOMAXPROCS, at most the
	// number of cells).
	Workers int
	// CellTimeout is the wall-clock budget per attempt (0 = unbounded).
	CellTimeout time.Duration
	// StallTimeout kills an attempt whose progress counter has not
	// advanced for this long (0 disables the watchdog).
	StallTimeout time.Duration
	// Retries is the number of extra attempts after a failure.
	Retries int
	// Backoff is the sleep before the first retry, doubling per attempt
	// and capped at 16x (default 100ms when Retries > 0).
	Backoff time.Duration
	// Checkpoint, when non-nil, restores completed cells before running
	// and stores each newly completed cell.
	Checkpoint *Checkpoint
	// Cache, when non-nil, resolves cells by CacheKey before the workers
	// start (hits never enter the pool) and records each newly computed
	// cell's value and wall-clock cost. Cells left to run are ordered
	// longest-processing-time-first using the cache's recorded costs,
	// falling back to Cell.EstCost.
	Cache *CellCache
	// OnCellDone, when non-nil, observes each settled cell (restored,
	// succeeded, or exhausted). Called from worker goroutines; must be
	// safe for concurrent use.
	OnCellDone func(CellResult)
	// Bus, when non-nil, receives a structured CellEvent for every cell
	// lifecycle transition (queued, started, progress, retried, cached,
	// restored, done, failed), for live progress rendering and the
	// obsv.Server /events NDJSON stream. Publishing never blocks the
	// worker pool. The campaign does not close the bus — the caller
	// owns its lifetime (it may span several campaigns of one run).
	Bus *Bus
	// ProgressEvery throttles per-cell progress events on the bus
	// (default 500ms). Progress events sample the cell's Env.Progress
	// cycle counter; tighter intervals cost one time.Now per ~1k
	// progress calls.
	ProgressEvery time.Duration
}

func (o Options) workers(cells int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (o Options) backoff(attempt int) time.Duration {
	b := o.Backoff
	if b <= 0 {
		b = 100 * time.Millisecond
	}
	for i := 1; i < attempt && i < 5; i++ {
		b *= 2
	}
	return b
}

// RunCampaign executes the cells and returns one result per cell, in
// input order. Individual cell failures are reported in their
// CellResult, never as the campaign error; the error return is
// reserved for malformed campaigns (duplicate or empty keys) and for
// campaign-level cancellation, in which case the partial results are
// still returned (unreached cells carry the cancellation error).
//
// With Options.Cache set, cells whose CacheKey resolves are settled
// before the worker pool starts (Cached=true, Run never called) and
// the remaining work is dispatched longest-processing-time-first.
func RunCampaign(ctx context.Context, cells []Cell, opts Options) ([]CellResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if c.Key == "" {
			return nil, fmt.Errorf("harness: cell with empty key")
		}
		if c.Run == nil {
			return nil, fmt.Errorf("harness: cell %q has no Run", c.Key)
		}
		if seen[c.Key] {
			return nil, fmt.Errorf("harness: duplicate cell key %q", c.Key)
		}
		seen[c.Key] = true
	}

	results := make([]CellResult, len(cells))

	// Cache pre-pass: resolve content-addressed hits inline so they
	// never occupy a worker, then order the remaining cells longest-
	// processing-time-first (recorded cost when the cache has seen the
	// cell or its key before, Cell.EstCost otherwise) to cut makespan —
	// a long cell dispatched last would otherwise run alone at the tail
	// while the rest of the pool idles.
	pending := make([]int, 0, len(cells))
	if opts.Cache != nil {
		for i := range cells {
			if cells[i].CacheKey != "" {
				if v, ok := opts.Cache.Lookup(cells[i].CacheKey); ok {
					results[i] = CellResult{Key: cells[i].Key, Value: v, Cached: true}
					publishCell(opts.Bus, EvCached, cells[i], nil)
					if opts.OnCellDone != nil {
						opts.OnCellDone(results[i])
					}
					continue
				}
			}
			pending = append(pending, i)
		}
		cost := make([]float64, len(cells))
		for _, i := range pending {
			if d, ok := opts.Cache.Cost(cells[i].CacheKey, cells[i].Key); ok {
				cost[i] = d.Seconds()
			} else {
				cost[i] = cells[i].EstCost
			}
		}
		sort.SliceStable(pending, func(a, b int) bool { return cost[pending[a]] > cost[pending[b]] })
	} else {
		for i := range cells {
			pending = append(pending, i)
		}
	}
	for _, i := range pending {
		publishCell(opts.Bus, EvQueued, cells[i], nil)
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.workers(len(pending)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				results[i] = runCell(ctx, cells[i], opts)
				if opts.OnCellDone != nil {
					opts.OnCellDone(results[i])
				}
			}
		}()
	}
feed:
	for _, i := range pending {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		cause := context.Cause(ctx)
		for i := range results {
			if results[i].Key == "" {
				results[i] = CellResult{Key: cells[i].Key, Err: fmt.Errorf("harness: campaign aborted: %w", cause)}
			}
		}
		return results, fmt.Errorf("harness: campaign aborted: %w", cause)
	}
	return results, nil
}

// cellObs is the per-cell observation state behind Env.Progress: the
// latest simulated-cycle value (for CellResult.Cycles and terminal
// events) plus the throttle for progress events on the bus. Allocated
// only when a campaign has a Bus or a stall watchdog, so a bare
// campaign's progress callback stays a no-op.
type cellObs struct {
	cell  Cell
	bus   *Bus
	start time.Time
	every time.Duration

	cycles  atomic.Int64
	calls   atomic.Int64
	lastPub atomic.Int64 // unix nanos of the last progress event
}

// progressSampleStride bounds how often the progress path checks the
// clock: one time.Now per this many Env.Progress calls. The simulator
// reports progress per event-loop iteration, far too hot to timestamp
// each call.
const progressSampleStride = 1024

// observe records a progress report and, on the bus path, publishes a
// throttled progress event.
func (o *cellObs) observe(cycle int64) {
	o.cycles.Store(cycle) // progress reports are monotonic (watchdog enforces its own max)
	if o.bus == nil {
		return
	}
	if o.calls.Add(1)%progressSampleStride != 0 {
		return
	}
	now := time.Now()
	last := o.lastPub.Load()
	if now.UnixNano()-last < int64(o.every) || !o.lastPub.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	o.bus.Publish(CellEvent{
		Kind: EvProgress, Key: o.cell.Key, Tags: o.cell.Tags,
		Cycles: cycle, ElapsedSec: now.Sub(o.start).Seconds(),
	})
}

// publishCell emits one lifecycle event for a cell (no-op without a
// bus); mut fills the kind-specific fields.
func publishCell(b *Bus, kind string, cell Cell, mut func(*CellEvent)) {
	if b == nil {
		return
	}
	e := CellEvent{Kind: kind, Key: cell.Key, Tags: cell.Tags}
	if mut != nil {
		mut(&e)
	}
	b.Publish(e)
}

// runCell settles one cell: checkpoint restore, then up to 1+Retries
// attempts with backoff.
func runCell(ctx context.Context, cell Cell, opts Options) CellResult {
	start := time.Now()
	res := CellResult{Key: cell.Key}
	if opts.Checkpoint != nil {
		if v, ok, err := opts.Checkpoint.Restore(cell.Key); err != nil {
			// A corrupt entry is not fatal: fall through and recompute.
			res.Err = err
		} else if ok {
			res.Value = v
			res.Restored = true
			res.Elapsed = time.Since(start)
			publishCell(opts.Bus, EvRestored, cell, func(e *CellEvent) {
				e.ElapsedSec = res.Elapsed.Seconds()
			})
			return res
		}
	}
	var obs *cellObs
	if opts.Bus != nil || opts.StallTimeout > 0 {
		every := opts.ProgressEvery
		if every <= 0 {
			every = 500 * time.Millisecond
		}
		obs = &cellObs{cell: cell, bus: opts.Bus, start: start, every: every}
	}
	for attempt := 0; attempt <= opts.Retries; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(opts.backoff(attempt))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				res.Err = fmt.Errorf("harness: campaign aborted: %w", context.Cause(ctx))
				res.Elapsed = time.Since(start)
				return res
			}
		}
		kind, at := EvStarted, attempt
		if attempt > 0 {
			kind = EvRetried
		}
		publishCell(opts.Bus, kind, cell, func(e *CellEvent) {
			e.Attempt = at
			e.ElapsedSec = time.Since(start).Seconds()
		})
		attemptStart := time.Now()
		v, err := runAttempt(ctx, cell, attempt, opts, obs)
		attemptElapsed := time.Since(attemptStart)
		res.Attempts = attempt + 1
		if err == nil {
			res.Value = v
			res.Err = nil
			if opts.Cache != nil && cell.CacheKey != "" && attempt == 0 {
				// Best-effort: a failed disk write is counted in the cache
				// stats but never fails a computed cell. Only first-attempt
				// results are stored — callers may perturb retried cells
				// (exp reseeds them), so a retry's value no longer matches
				// the content hash computed from the original inputs.
				_ = opts.Cache.Store(cell.CacheKey, cell.Key, v, attemptElapsed)
			}
			if opts.Checkpoint != nil {
				if cerr := opts.Checkpoint.Store(cell.Key, v); cerr != nil {
					res.Err = fmt.Errorf("harness: cell %q succeeded but checkpoint failed: %w", cell.Key, cerr)
					res.Value = nil
				}
			}
			break
		}
		res.Err = err
		var pe *PanicError
		if errors.As(err, &pe) {
			res.Panicked = true
		}
		if errors.Is(err, ErrStalled) {
			res.Stalled = true
		}
		if ctx.Err() != nil {
			break // campaign-level cancel: do not burn retries
		}
	}
	res.Elapsed = time.Since(start)
	if obs != nil {
		res.Cycles = obs.cycles.Load()
	}
	kind := EvDone
	if res.Err != nil {
		kind = EvFailed
	}
	publishCell(opts.Bus, kind, cell, func(e *CellEvent) {
		e.Attempt = res.Attempts - 1
		e.Cycles = res.Cycles
		e.ElapsedSec = res.Elapsed.Seconds()
		if res.Err != nil {
			e.Error = res.Err.Error()
		}
	})
	return res
}

// runAttempt executes one attempt with panic recovery, wall-clock
// timeout, the stall watchdog, and the bus progress sampler.
func runAttempt(ctx context.Context, cell Cell, attempt int, opts Options, obs *cellObs) (v any, err error) {
	if opts.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, opts.CellTimeout,
			fmt.Errorf("harness: cell %q exceeded timeout %v", cell.Key, opts.CellTimeout))
		defer cancel()
	}
	progress := func(int64) {}
	if obs != nil {
		progress = obs.observe
	}
	if opts.StallTimeout > 0 {
		var cancel context.CancelCauseFunc
		ctx, cancel = context.WithCancelCause(ctx)
		wd := newWatchdog(opts.StallTimeout, cell.Key, cancel)
		defer wd.stop()
		inner := progress
		progress = func(cycle int64) {
			wd.report(cycle)
			inner(cycle)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			v = nil
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return cell.Run(ctx, Env{Attempt: attempt, Progress: progress})
}

// watchdog cancels an attempt when the reported progress value stops
// increasing for longer than the stall deadline.
type watchdog struct {
	latest atomic.Int64
	done   chan struct{}
	wg     sync.WaitGroup
}

func newWatchdog(stall time.Duration, key string, cancel context.CancelCauseFunc) *watchdog {
	w := &watchdog{done: make(chan struct{})}
	w.latest.Store(-1)
	interval := stall / 8
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		last := w.latest.Load()
		lastChange := time.Now()
		for {
			select {
			case <-w.done:
				return
			case <-t.C:
				if cur := w.latest.Load(); cur > last {
					last = cur
					lastChange = time.Now()
				} else if time.Since(lastChange) > stall {
					cancel(fmt.Errorf("harness: cell %q made no progress for %v (cycle %d): %w",
						key, stall, last, ErrStalled))
					return
				}
			}
		}
	}()
	return w
}

func (w *watchdog) report(cycle int64) {
	// Monotonic max: out-of-order reports never look like progress.
	for {
		cur := w.latest.Load()
		if cycle <= cur || w.latest.CompareAndSwap(cur, cycle) {
			return
		}
	}
}

func (w *watchdog) stop() {
	close(w.done)
	w.wg.Wait()
}
