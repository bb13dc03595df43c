// Command perfbench is the repository's campaign benchmark. It runs one
// named workload — a closed-loop campaign of full-system cells through
// the exp and harness packages — for a fixed time, checks every cell's
// result, and prints the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced run, as one JSON line. See README.md.
//
// Usage (from the repository root, which run.sh does for you):
//
//	perfbench --workload sweep-heavy --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// A run sets up at least minSetups times and for at least minSetupTime,
// and reports the median as setup_s. Set-up takes under a millisecond,
// so it repeats until the median is steady.
const (
	minSetups    = 3
	minSetupTime = time.Second
)

type config struct {
	bench   bench
	seed    uint64
	seconds time.Duration
	trace   bool
	workers int
	dir     string // caches and span files live under here
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run reports.
type outcome struct {
	verdict
	metrics map[string]metric
	digest  string // the run's reference results
	traced  string // the traced campaign's results (traced runs only)
	spans   string // where the traced run wrote its spans
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// stamp records what produced a result: the machine, the toolchain, the
// campaign shape and the simulated outputs it must reproduce.
type stamp struct {
	Workload        string         `json:"workload"`
	Seed            uint64         `json:"seed"`
	Trace           bool           `json:"trace"`
	Workers         int            `json:"workers"`
	GoVersion       string         `json:"go_version"`
	Env             stats.BenchEnv `json:"env"`
	CacheKeyVersion string         `json:"cache_key_version"`
	Digest          string         `json:"digest"`
	TracedDigest    string         `json:"traced_digest,omitempty"`
}

func newStamp(cfg config, out *outcome) stamp {
	return stamp{
		Workload: cfg.bench.name, Seed: cfg.seed, Trace: cfg.trace, Workers: cfg.workers,
		GoVersion: runtime.Version(), Env: stats.CurrentBenchEnv(),
		CacheKeyVersion: sim.CacheKeyVersion, Digest: out.digest, TracedDigest: out.traced,
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload to run: sweep-heavy or sweep-light")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long the timed portion runs")
	trace := flag.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for caches and span files")
	flag.Parse()
	b, err := benchByName(*name)
	if err != nil || *trace < 0 || *trace > 1 || *seconds < 0 {
		if err == nil {
			err = fmt.Errorf("-trace must be 0 or 1 and -seconds non-negative")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	cfg := config{
		bench:   b,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workers: workers,
		dir:     *dir,
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, r := range out.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: failed cell", r)
	}
	st, err := json.Marshal(newStamp(cfg, out))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("stamp %s\n", st)
	fmt.Printf("digest %s %s seed=%d %s\n", b.name, sim.CacheKeyVersion, cfg.seed, out.digest)
	if out.spans != "" {
		fmt.Printf("spans %s\n", out.spans)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, out.metrics[n].Value, out.metrics[n].Unit)
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n", res)
	return 0
}

// run sets up several times, then makes the timed or the traced run.
// Every cache it creates lives in a work directory removed on return.
func run(cfg config) (*outcome, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.dir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var cells []cell
	var times []float64
	start := time.Now()
	for i := 0; i < minSetups || time.Since(start) < minSetupTime; i++ {
		t := time.Now()
		if cells, err = cfg.bench.cells(cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}

	out := &outcome{metrics: map[string]metric{}}
	if cfg.trace {
		err = traced(cfg, cells, work, out)
	} else {
		err = timed(cfg, cells, work, out)
		out.set("setup_s", median(times), "s")
	}
	return out, err
}

// timed repeats the workload's campaign, each pass from an empty cache
// directory, until cfg.seconds have passed and reports the median pass.
func timed(cfg config, cells []cell, work string, out *outcome) error {
	var wall, nsPerReq, minstPerS, allocMB []float64
	var ref encoded
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.seconds; i++ {
		dir := filepath.Join(work, fmt.Sprintf("pass-%d", i))
		p, err := runPass(cfg.bench, cfg.seed, cfg.workers, dir, false)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		// Later passes must reproduce the first one bit for bit.
		out.add(judge(cells, p.enc, p.results, p.errs, ref))
		if ref == nil {
			ref = p.enc
		}
		w := workOf(p.results)
		wall = append(wall, p.wall.Seconds())
		if w.requests > 0 {
			nsPerReq = append(nsPerReq, float64(p.cpu.Nanoseconds())/float64(w.requests))
		}
		minstPerS = append(minstPerS, float64(w.insts)/1e6/p.wall.Seconds())
		allocMB = append(allocMB, float64(p.alloc)/1e6)
	}
	out.digest = ref.digest()
	out.set("wall_s", median(wall), "s")
	out.set("host_ns_per_req", median(nsPerReq), "ns")
	out.set("sim_minst_per_s", median(minstPerS), "Minst/s")
	out.set("alloc_mb", median(allocMB), "MB")
	out.set("completed_frac", float64(out.attempted-out.failed)/float64(out.attempted), "ratio")
	return nil
}

// traced alternates untraced passes, which give the campaign-layer
// metrics and the reference results, with traced passes that drive the
// same cells through each layer's entry points inside spans, until
// cfg.seconds have passed. Then it replays the last traced pass's cache,
// probes sim.New, the workload streams and address decode one cell at a
// time, and writes the spans out.
func traced(cfg config, cells []cell, work string, out *outcome) error {
	tr := newTracer()
	var ref encoded
	samples := map[string]int64{}
	var untracedWall, tracedWall, reportMS []float64
	var filled string // the last traced pass's cache
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.seconds; i++ {
		dir := filepath.Join(work, fmt.Sprintf("untraced-%d", i))
		p, err := runPass(cfg.bench, cfg.seed, cfg.workers, dir, true)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		v := judge(cells, p.enc, p.results, p.errs, ref)
		out.add(v)
		if ref == nil {
			ref = p.enc
			campaignMetrics(out, p, v, cfg.workers)
			countMetrics(out, p.results)
		}
		untracedWall = append(untracedWall, p.wall.Seconds())

		if filled != "" {
			if err := os.RemoveAll(filled); err != nil {
				return err
			}
		}
		filled = filepath.Join(work, fmt.Sprintf("traced-%d", i))
		tp, err := runTraced(cfg.bench, cfg.seed, cfg.workers, filled, tr, p)
		if err != nil {
			return err
		}
		out.add(judge(cells, tp.enc, tp.results, tp.errs, ref))
		out.traced = tp.enc.digest()
		tracedWall = append(tracedWall, tp.wall.Seconds())
		reportMS = append(reportMS, float64(tp.report)/float64(time.Millisecond))
		for k, n := range tp.samples {
			samples[k] += n
		}
	}
	out.digest = ref.digest()

	rv, replayed, err := replayProbe(tr, filled, cells, ref)
	if err != nil {
		return err
	}
	out.add(rv)
	pb, err := probe(tr, cells)
	if err != nil {
		return err
	}

	var inRun int64
	for _, n := range samples {
		inRun += n
	}
	for _, n := range shareNames {
		out.set(n, ratio(float64(samples[n]), float64(inRun)), "ratio")
	}
	perCall := func(name string, unit time.Duration) float64 {
		d, n := tr.total(name)
		return ratio(float64(d)/float64(unit), float64(n))
	}
	out.set("sim.new_ms_per_cell", perCall("sim.new", time.Millisecond), "ms")
	out.set("sim.run_ms_per_cell", perCall("sim.run", time.Millisecond), "ms")
	out.set("harness.store_us_per_cell", perCall("harness.store", time.Microsecond), "us")
	out.set("harness.lookup_us_per_cell", perCall("harness.lookup", time.Microsecond), "us")
	out.set("harness.replay_lookup_us_per_cell", perCall("harness.replay_lookup", time.Microsecond), "us")
	out.set("harness.cache_hits", float64(replayed.Hits), "count")
	out.set("harness.cache_bytes_read", float64(replayed.BytesRead), "B")
	out.set("exp.report_ms", median(reportMS), "ms")
	out.set("sim.new_alloc_mb_per_cell", ratio(float64(pb.newAlloc)/1e6, float64(pb.cells)), "MB")
	out.set("workload.records", float64(pb.records), "count")
	out.set("workload.ns_per_record", ratio(float64(pb.streamTime), float64(pb.records)), "ns")
	out.set("dram.decode_ns", ratio(float64(pb.decodeTime), float64(pb.decoded)), "ns")
	out.set("trace.wall_s", median(tracedWall), "s")
	out.set("trace.untraced_wall_s", median(untracedWall), "s")
	out.set("trace.overhead_frac", median(tracedWall)/median(untracedWall)-1, "ratio")
	out.set("trace.profile_samples", float64(inRun), "count")
	out.set("failed_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid pointer
	out.set("process.peak_rss_mb", float64(ru.Maxrss)/1024, "MB")

	out.spans = filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.json", cfg.bench.name, cfg.seed))
	return tr.writeFile(out.spans, newStamp(cfg, out))
}

// campaignMetrics reports the campaign layer of an untraced pass: pool
// occupancy and cell times as the harness measured them, the cold
// pass's cache traffic, and the Go runtime's GC share.
func campaignMetrics(out *outcome, p *pass, v verdict, workers int) {
	var busy float64
	var cellMS []float64
	for _, c := range p.rep.Cells {
		busy += c.ElapsedSec
		cellMS = append(cellMS, c.ElapsedSec*1e3)
	}
	out.set("harness.pool_idle_frac", 1-busy/(float64(workers)*p.wall.Seconds()), "ratio")
	out.set("harness.cell_ms_p50", median(cellMS), "ms")
	out.set("harness.cell_ms_max", slices.Max(cellMS), "ms")
	out.set("harness.cells", float64(v.attempted), "count")
	out.set("harness.cells_failed", float64(v.failed), "count")
	out.set("harness.cache_misses", float64(p.cache.Misses), "count")
	out.set("harness.cache_bytes_written", float64(p.cache.BytesWritten), "B")
	out.set("gc.cpu_frac", p.gcCPUFrac, "ratio")
	out.set("gc.cycles", float64(p.gcCycles), "count")
}

// countMetrics reports the simulated work the results carry. These
// are model outputs: a change to host code must leave them alone.
func countMetrics(out *outcome, results map[string]sim.Result) {
	var cycles, insts, acts, rowHits, epochs, queueFull, trAct, trMitig, trMeta int64
	for _, r := range results {
		m := r.Mem
		cycles += r.Cycles
		insts += r.Insts
		acts += m.Activates
		rowHits += m.RowHits
		epochs += m.Epochs
		queueFull += m.ReadQFull + m.WriteQFull
		if r.Tracker != string(sim.TrackNone) {
			for _, n := range r.ActsByKind {
				trAct += n
			}
			trMitig += r.Mitigations
			trMeta += m.MetaReads + m.MetaWrites
		}
	}
	reqs := workOf(results).requests
	out.set("sim.cycles", float64(cycles), "count")
	out.set("sim.insts", float64(insts), "count")
	out.set("memsim.requests", float64(reqs), "count")
	out.set("memsim.activates", float64(acts), "count")
	out.set("memsim.row_hits", float64(rowHits), "count")
	out.set("memsim.epochs", float64(epochs), "count")
	out.set("memsim.requests_per_epoch", ratio(float64(reqs), float64(epochs)), "ratio")
	out.set("memsim.queue_full", float64(queueFull), "count")
	out.set("tracker.acts", float64(trAct), "count")
	out.set("tracker.mitigations", float64(trMitig), "count")
	out.set("tracker.meta_requests", float64(trMeta), "count")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
