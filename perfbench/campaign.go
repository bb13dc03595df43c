package main

import (
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// counters is a snapshot of the process's cumulative host cost.
type counters struct {
	at       time.Time
	cpu      time.Duration // user + system time of every thread
	alloc    uint64        // heap bytes allocated
	gcCycles uint64
	gcCPU    float64 // CPU seconds spent in GC (runtime estimate)
	allCPU   float64 // CPU seconds available to Go code (runtime estimate)
}

var counterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters() counters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return counters{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		allCPU:   s[3].Value.Float64(),
	}
}

// cost is the host cost between two snapshots.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
	gcCycles  uint64
	gcCPUFrac float64
}

func (c counters) to(d counters) cost {
	out := cost{
		wall:     d.at.Sub(c.at),
		cpu:      d.cpu - c.cpu,
		alloc:    d.alloc - c.alloc,
		gcCycles: d.gcCycles - c.gcCycles,
	}
	if all := d.allCPU - c.allCPU; all > 0 {
		out.gcCPUFrac = (d.gcCPU - c.gcCPU) / all
	}
	return out
}

// pass is one untraced cold campaign of a workload, driven through
// exp.Sweep exactly as the experiments binary drives a target.
type pass struct {
	cost
	opts    exp.Options
	rep     *exp.PerfReport
	elapsed time.Duration // of the Sweep call, as the run report records it
	results map[string]sim.Result
	errs    map[string]error // cells that failed
	enc     encoded
	cache   harness.CacheStats
	queued  []string // cell keys in the order the harness queued them, when observed
}

// runPass runs b's sweep against an empty cache in dir and encodes the
// run report as the experiments binary does. With observe, the pass
// publishes its cell events on a bus and records the harness's
// dispatch order.
func runPass(b bench, seed uint64, workers int, dir string, observe bool) (*pass, error) {
	cache, err := harness.NewCellCache(dir)
	if err != nil {
		return nil, err
	}
	p := &pass{opts: b.options(seed, workers, cache), results: map[string]sim.Result{}, errs: map[string]error{}}
	var bus *harness.Bus
	if observe {
		bus = harness.NewBus(0)
		p.opts.Bus = bus
	}
	c0 := readCounters()
	t := time.Now()
	p.rep, err = exp.Sweep(p.opts, b.name, b.variants())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.name, err)
	}
	p.elapsed = time.Since(t)
	if err := p.encodeReport(); err != nil {
		return nil, err
	}
	p.cost = c0.to(readCounters())
	p.cache = cache.Stats()
	if bus != nil {
		// A closed bus hands a replaying subscriber its retained events
		// on an already-closed channel.
		bus.Close()
		events, _ := bus.Subscribe(busRetain, true)
		for e := range events {
			if e.Kind == harness.EvQueued {
				p.queued = append(p.queued, e.Key)
			}
		}
	}
	for variant, byWorkload := range p.rep.Results {
		for wl, r := range byWorkload {
			p.results[b.name+"/"+variant+"/"+wl] = r
		}
	}
	for _, st := range p.rep.Cells {
		if st.Status == obsv.CellFailed {
			p.errs[st.Key] = errors.New(st.Error)
		}
	}
	p.enc, err = encodeResults(p.results)
	return p, err
}

// busRetain is the default replay ring of harness.NewBus; a pass
// publishes a few events per cell, far fewer than this.
const busRetain = 4096

// encodeReport builds and encodes the pass's run report.
func (p *pass) encodeReport() error {
	f := obsv.NewReportFile(exp.BuildReport(p.opts.Target, p.opts, p.rep, p.elapsed))
	if err := f.Encode(io.Discard); err != nil {
		return fmt.Errorf("%s: encoding run report: %w", p.opts.Target, err)
	}
	return nil
}

// work is the simulated work a set of results carries.
type work struct {
	requests int64 // reads + writes + metadata + mitigation requests
	insts    int64
}

func workOf(results map[string]sim.Result) work {
	var w work
	for _, r := range results {
		m := r.Mem
		w.requests += m.Reads + m.Writes + m.MetaReads + m.MetaWrites + m.MitigActs
		w.insts += r.Insts
	}
	return w
}
