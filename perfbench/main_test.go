package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tiny shrinks a workload to a few short cells.
func tiny(b bench) bench {
	b.scale *= 32
	b.profiles = b.profiles[:2]
	b.schemes = b.schemes[:2]
	return b
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that each emits every metric BENCHMARK.json names for its
// mode with the declared unit, that every cell passes the gate, and
// that tracing leaves the simulated results unchanged.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benches()) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(benches()))
	}
	for _, w := range spec.Workloads {
		b, err := benchByName(w.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		b = tiny(b)
		digests := map[bool]string{}
		for _, trace := range []bool{false, true} {
			out, err := run(config{bench: b, seed: 1, trace: trace, workers: runtime.NumCPU(), dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", b.name, trace, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d cells failed: %v", b.name, trace, out.failed, out.attempted, out.reasons)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
				if out.traced != out.digest {
					t.Errorf("%s: traced results %s differ from untraced %s", b.name, out.traced, out.digest)
				}
			}
			if len(out.metrics) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json names %d", b.name, trace, len(out.metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", b.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", b.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			digests[trace] = out.digest
		}
		if digests[false] != digests[true] {
			t.Errorf("%s: traced run's reference digest %s differs from the timed run's %s", b.name, digests[true], digests[false])
		}
	}
}

func TestFoldStack(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/memsim.(*channel).step"}, "runtime.share"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "repro/internal/track.(*Graphene).Activate"}, "runtime.share"},
		{[]string{"repro/internal/memsim.(*channel).step", "repro/internal/memsim.(*Memory).RunEpoch"}, "memsim.step_share"},
		{[]string{"repro/internal/memsim.(*shared).release", "repro/internal/memsim.(*Memory).drain", "repro/internal/sim.(*System).Run"}, "memsim.merge_share"},
		{[]string{"repro/internal/core.(*Tracker).Activate", "repro/internal/sim.(*System).onACT", "repro/internal/memsim.(*Memory).drain"}, "tracker.share"},
		{[]string{"repro/internal/obsv.(*Hist).Add", "repro/internal/memsim.(*channel).step"}, "memsim.step_share"},
		{[]string{"sort.Search", "repro/internal/dram.Config.Decode"}, "dram.share"},
		{[]string{"repro/internal/cpu.(*Core).Step", "repro/internal/sim.(*System).Run"}, "cpu.share"},
		{[]string{"repro/internal/workload.(*Stream).Next", "repro/internal/cpu.(*Core).Step"}, "workload.share"},
		{[]string{"repro/internal/sim.(*System).Run"}, "sim.share"},
	} {
		if got := foldStack(tc.frames); got != tc.want {
			t.Errorf("foldStack(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}
