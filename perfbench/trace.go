package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workload"
)

// span is one timed call into a layer's public entry point.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 at the top level
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(parent int64, name, cell string) span {
	return span{ID: t.next.Add(1), Parent: parent, Name: name, Cell: cell, Start: int64(time.Since(t.t0))}
}

// end records s and returns its duration.
func (t *tracer) end(s span) time.Duration {
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return time.Duration(s.End - s.Start)
}

// total returns the summed duration and count of the spans named name.
func (t *tracer) total(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
			n++
		}
	}
	return d, n
}

func (t *tracer) writeFile(path string, stamp any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Stamp any    `json:"stamp"`
		Spans []span `json:"spans"`
	}{stamp, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// drive runs a workload's cells by calling each layer itself, inside
// spans: the cache lookup, then on a miss sim.New, Run and the cache
// store.
type drive struct {
	tr    *tracer
	cache *harness.CellCache
}

func newDrive(tr *tracer, dir string) (*drive, error) {
	cache, err := harness.NewCellCache(dir)
	if err != nil {
		return nil, err
	}
	cache.Decode = exp.DecodeResult
	return &drive{tr: tr, cache: cache}, nil
}

// lookup resolves a cell from the cache in a span named name.
func (d *drive) lookup(parent int64, name string, c cell) (sim.Result, bool) {
	sp := d.tr.begin(parent, name, c.key)
	v, ok := d.cache.Lookup(c.hash)
	d.tr.end(sp)
	if !ok {
		return sim.Result{}, false
	}
	return v.(sim.Result), true
}

// simulate runs a cell that missed the cache and stores its result.
func (d *drive) simulate(ctx context.Context, parent int64, c cell) (sim.Result, error) {
	cs := d.tr.begin(parent, "cell", c.key)
	defer d.tr.end(cs)
	cfg := c.cfg
	cfg.Ctx = ctx
	sp := d.tr.begin(cs.ID, "sim.new", c.key)
	sys, err := sim.New(cfg)
	d.tr.end(sp)
	if err != nil {
		return sim.Result{}, err
	}
	sp = d.tr.begin(cs.ID, "sim.run", c.key)
	res, err := sys.Run()
	runTime := d.tr.end(sp)
	if err != nil {
		return sim.Result{}, err
	}
	sp = d.tr.begin(cs.ID, "harness.store", c.key)
	err = d.cache.Store(c.hash, c.key, res, runTime)
	d.tr.end(sp)
	return res, err
}

// campaign mirrors harness.RunCampaign with a cache: every cell is
// looked up in turn, as the harness does before its worker pool
// starts, then the misses run on the harness worker pool in the order
// the untraced pass's harness dispatched them. What each cell produced
// goes into tp.
func (d *drive) campaign(ctx context.Context, parent int64, cells []cell, order map[string]int, workers int, tp *tracedPass) error {
	var misses []cell
	for _, c := range cells {
		if r, ok := d.lookup(parent, "harness.lookup", c); ok {
			tp.results[c.key] = r
		} else {
			misses = append(misses, c)
		}
	}
	sort.SliceStable(misses, func(i, j int) bool { return order[misses[i].key] < order[misses[j].key] })
	hcells := make([]harness.Cell, len(misses))
	for i, c := range misses {
		hcells[i] = harness.Cell{Key: c.key, Run: func(ctx context.Context, _ harness.Env) (any, error) {
			return d.simulate(ctx, parent, c)
		}}
	}
	hres, err := harness.RunCampaign(ctx, hcells, harness.Options{Workers: workers})
	if err != nil {
		return err
	}
	for _, r := range hres {
		if r.Err != nil {
			tp.errs[r.Key] = r.Err
			continue
		}
		tp.results[r.Key] = r.Value.(sim.Result)
	}
	return nil
}

// tracedPass is one traced cold campaign of a workload.
type tracedPass struct {
	wall, report time.Duration
	results      map[string]sim.Result
	errs         map[string]error
	enc          encoded
	samples      map[string]int64 // CPU profile samples inside Run, by share
}

// runTraced drives b's cells against an empty cache in dir on the
// harness worker pool, then builds and encodes the run report of the
// untraced pass it follows, all under a CPU profile.
func runTraced(b bench, seed uint64, workers int, dir string, tr *tracer, untraced *pass) (*tracedPass, error) {
	cells, err := b.cells(seed)
	if err != nil {
		return nil, err
	}
	d, err := newDrive(tr, dir)
	if err != nil {
		return nil, err
	}
	order := make(map[string]int, len(untraced.queued))
	for i, k := range untraced.queued {
		order[k] = i
	}
	tp := &tracedPass{results: map[string]sim.Result{}, errs: map[string]error{}}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	t0 := time.Now()
	err = func() error {
		root := tr.begin(0, "pass", b.name)
		defer tr.end(root)
		sp := tr.begin(root.ID, "harness.campaign", b.name)
		err := d.campaign(context.Background(), sp.ID, cells, order, workers, tp)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(root.ID, "exp.report", b.name)
		err = untraced.encodeReport()
		tp.report = tr.end(sp)
		return err
	}()
	tp.wall = time.Since(t0)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if tp.samples, err = foldProfile(prof.Bytes()); err != nil {
		return nil, err
	}
	tp.enc, err = encodeResults(tp.results)
	return tp, err
}

// replayProbe reads every cell back from the cache a traced pass
// filled in dir, through a fresh CellCache as a rerun of the campaign
// would: one disk read and decode per cell, plus the cache's atime
// refresh. Every replayed result must equal its cold result in ref.
func replayProbe(tr *tracer, dir string, cells []cell, ref encoded) (verdict, harness.CacheStats, error) {
	d, err := newDrive(tr, dir)
	if err != nil {
		return verdict{}, harness.CacheStats{}, err
	}
	results := map[string]sim.Result{}
	errs := map[string]error{}
	for _, c := range cells {
		if r, ok := d.lookup(0, "harness.replay_lookup", c); ok {
			results[c.key] = r
		} else {
			errs[c.key] = fmt.Errorf("not replayed from the cache")
		}
	}
	enc, err := encodeResults(results)
	if err != nil {
		return verdict{}, harness.CacheStats{}, err
	}
	return judge(cells, enc, results, errs, ref), d.cache.Stats(), nil
}

// probes are the standalone layer drives of the traced run, made one
// cell at a time after the traced campaign, so no other worker's
// allocation or CPU contention mixes in.
type probes struct {
	newAlloc   uint64 // heap bytes sim.New allocated, over all cells
	cells      int
	records    int64 // workload stream records generated
	streamTime time.Duration
	decoded    int64 // line addresses decoded
	decodeTime time.Duration
	sink       uint64 // keeps the decoded locations live
}

// probe builds each cell's system with sim.New to measure its
// allocation, drives the cell's per-core workload streams to
// exhaustion with NewStream and Next, and decodes every line address
// they generated with Config.Decode. The streams use the untracked demand
// footprint; a tracker's reserved rows shift a few rows of it, which
// changes nothing these timings depend on.
func probe(tr *tracer, cells []cell) (probes, error) {
	var pb probes
	var lines []uint64
	for _, c := range cells {
		cfg := c.cfg
		sp := tr.begin(0, "sim.new.alloc_probe", c.key)
		before := readCounters().alloc
		sys, err := sim.New(cfg)
		pb.newAlloc += readCounters().alloc - before
		tr.end(sp)
		if err != nil {
			return pb, fmt.Errorf("%s: %w", c.key, err)
		}
		runtime.KeepAlive(sys)
		pb.cells++

		lines = lines[:0]
		sp = tr.begin(0, "workload.stream", c.key)
		for core := 0; core < cfg.Cores; core++ {
			s, err := workload.NewStream(cfg.Profile, workload.StreamConfig{
				Mem:          cfg.Mem,
				MaxDemandRow: cfg.Mem.RowsPerBank - 17,
				CoreID:       core,
				Cores:        cfg.Cores,
				Scale:        cfg.Scale,
				Burst:        cfg.Burst,
				WriteFrac:    cfg.WriteFrac,
				Seed:         cfg.Seed,
			})
			if err != nil {
				return pb, fmt.Errorf("%s: %w", c.key, err)
			}
			for {
				req, ok := s.Next()
				if !ok {
					break
				}
				lines = append(lines, req.Line)
			}
		}
		pb.streamTime += tr.end(sp)
		pb.records += int64(len(lines))

		sp = tr.begin(0, "dram.decode", c.key)
		for _, l := range lines {
			loc := cfg.Mem.Decode(l)
			pb.sink += uint64(loc.Channel ^ loc.Rank ^ loc.Bank ^ loc.Row ^ loc.Col)
		}
		pb.decodeTime += tr.end(sp)
		pb.decoded += int64(len(lines))
	}
	return pb, nil
}
