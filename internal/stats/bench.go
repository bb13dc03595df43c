package stats

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// BenchSchema identifies the benchmark baseline file format.
const BenchSchema = "hydra-bench-baseline/v1"

// BenchResult is one benchmark measurement parsed from `go test -bench`
// output.
type BenchResult struct {
	N           int64   `json:"n"`             // iterations run
	NsPerOp     float64 `json:"ns_per_op"`     // wall time per op
	BytesPerOp  int64   `json:"bytes_per_op"`  // -1 when not reported
	AllocsPerOp int64   `json:"allocs_per_op"` // -1 when not reported
}

// BenchEnv records the machine a baseline was measured on. Benchmark
// times only gate meaningfully against a baseline from a comparable
// environment — a number recorded on a 16-core box says nothing about a
// single-core CI runner (and the campaign benchmarks size their worker
// pools from the CPU count), so comparisons check this and fail loudly
// on mismatch instead of silently drifting.
type BenchEnv struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentBenchEnv captures the running process's environment.
func CurrentBenchEnv() BenchEnv {
	return BenchEnv{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Mismatch describes why results from env e cannot be compared against
// a baseline recorded under base; it returns "" when they can.
func (e BenchEnv) Mismatch(base BenchEnv) string {
	switch {
	case e.GOOS != base.GOOS || e.GOARCH != base.GOARCH:
		return fmt.Sprintf("platform %s/%s, baseline recorded on %s/%s",
			e.GOOS, e.GOARCH, base.GOOS, base.GOARCH)
	case e.NumCPU != base.NumCPU:
		return fmt.Sprintf("%d CPUs, baseline recorded with %d", e.NumCPU, base.NumCPU)
	case e.GOMAXPROCS != base.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d, baseline recorded at %d", e.GOMAXPROCS, base.GOMAXPROCS)
	}
	return ""
}

// BenchFile is the on-disk baseline artifact: the current measurements,
// the environment they were recorded in, and, optionally, the
// measurements they were compared against when the baseline was written
// (so the file records the speedup a change delivered, not just its
// endpoint). Env is nil in baselines written before it existed; those
// compare without the environment check.
type BenchFile struct {
	Schema     string                 `json:"schema"`
	Env        *BenchEnv              `json:"env,omitempty"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
	Previous   map[string]BenchResult `json:"previous,omitempty"`
	Speedup    map[string]float64     `json:"speedup,omitempty"`
}

// ParseBench extracts benchmark lines from `go test -bench` output.
// Names are normalized by stripping the trailing -GOMAXPROCS suffix.
// Non-benchmark lines are ignored, so raw test output can be piped in.
func ParseBench(r io.Reader) (map[string]BenchResult, error) {
	out := make(map[string]BenchResult)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue // e.g. "Benchmarking..." prose
		}
		res := BenchResult{N: n, BytesPerOp: -1, AllocsPerOp: -1}
		ok := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("stats: bad benchmark value %q in %q", f[i], sc.Text())
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = v
				ok = true
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			}
		}
		if ok {
			out[benchName(f[0])] = res
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// benchName strips the -N GOMAXPROCS suffix go test appends.
func benchName(s string) string {
	if i := strings.LastIndexByte(s, '-'); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			return s[:i]
		}
	}
	return s
}

// BenchDelta is the comparison of one benchmark against its baseline.
type BenchDelta struct {
	Name      string
	Baseline  BenchResult // zero value when New
	Current   BenchResult
	Ratio     float64 // current ns/op over baseline ns/op (0 when New)
	New       bool    // present in current but absent from the baseline
	Regressed bool
	Reason    string
}

// allocSlack is the per-op allocation increase tolerated before a
// benchmark counts as regressed: 0.1% of the baseline, truncated.
// Microbenchmark counts are deterministic and small, so the slack is
// zero there — going from 0 to 1 allocs/op fails. End-to-end
// benchmarks that allocate millions of times per op (the figure
// sweeps run watchdog goroutines and timers) jitter by a handful of
// allocations between runs; the slack absorbs that without masking a
// real leak.
func allocSlack(base int64) int64 {
	return base / 1000
}

// CompareBench checks current results against a baseline. A benchmark
// regresses when its time exceeds the baseline by more than tolerance
// (e.g. 0.25 = 25%), or when it allocates more per op than the
// baseline recorded plus a 0.1% jitter slack (zero for benchmarks
// under 1000 allocs/op, where counts are deterministic). A benchmark
// present in the current run but absent from the baseline is reported
// as New and never regresses — newly added benchmarks must not force a
// hand-edited baseline. Benchmarks only in the baseline are skipped:
// the gate compares what both runs measured.
func CompareBench(baseline, current map[string]BenchResult, tolerance float64) []BenchDelta {
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	deltas := make([]BenchDelta, 0, len(names))
	for _, name := range names {
		cur := current[name]
		base, inBase := baseline[name]
		if !inBase {
			deltas = append(deltas, BenchDelta{Name: name, Current: cur, New: true})
			continue
		}
		d := BenchDelta{Name: name, Baseline: base, Current: cur}
		if base.NsPerOp > 0 {
			d.Ratio = cur.NsPerOp / base.NsPerOp
		}
		switch {
		case base.NsPerOp > 0 && cur.NsPerOp > base.NsPerOp*(1+tolerance):
			d.Regressed = true
			d.Reason = fmt.Sprintf("%.1f ns/op exceeds baseline %.1f by more than %.0f%%",
				cur.NsPerOp, base.NsPerOp, tolerance*100)
		case base.AllocsPerOp >= 0 && cur.AllocsPerOp > base.AllocsPerOp+allocSlack(base.AllocsPerOp):
			d.Regressed = true
			d.Reason = fmt.Sprintf("%d allocs/op exceeds baseline %d",
				cur.AllocsPerOp, base.AllocsPerOp)
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// WriteBenchFile writes the baseline artifact, stamped with the
// current environment. When prev is non-empty the file also records
// those prior measurements and the per-benchmark speedup (prev time
// over current time).
func WriteBenchFile(path string, current, prev map[string]BenchResult) error {
	env := CurrentBenchEnv()
	f := BenchFile{Schema: BenchSchema, Env: &env, Benchmarks: current}
	if len(prev) > 0 {
		f.Previous = prev
		f.Speedup = make(map[string]float64)
		for name, p := range prev {
			if c, ok := current[name]; ok && c.NsPerOp > 0 {
				f.Speedup[name] = p.NsPerOp / c.NsPerOp
			}
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBenchFile reads a baseline artifact written by WriteBenchFile.
func LoadBenchFile(path string) (BenchFile, error) {
	var f BenchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("stats: parsing %s: %w", path, err)
	}
	if f.Schema != BenchSchema {
		return f, fmt.Errorf("stats: %s has schema %q, want %q", path, f.Schema, BenchSchema)
	}
	return f, nil
}
