package sim

import (
	"testing"

	"repro/internal/workload"
)

// benchConfig is a small but representative full-system cell: 4 cores,
// Hydra tracking at T_RH 500, a short tracking window so the reset
// path runs, and a footprint scale that keeps one run around a few
// hundred thousand scheduling decisions.
func benchConfig(p string) Config {
	prof, err := workload.ByName(p)
	if err != nil {
		panic(err)
	}
	cfg := Default(prof)
	cfg.Scale = 512
	cfg.Cores = 4
	cfg.WindowCycles = 400_000
	return cfg
}

// BenchmarkFullSystemHydra measures end-to-end simulation speed on a
// memory-intensive workload with Hydra tracking: the wall-clock cost
// of one campaign cell, dominated by the memsim scheduling hot path.
func BenchmarkFullSystemHydra(b *testing.B) {
	benchFullSystem(b, benchConfig("parest"))
}

// BenchmarkFullSystemBaseline measures the same cell without tracking
// (the non-secure baseline): pure cores + memory controller.
func BenchmarkFullSystemBaseline(b *testing.B) {
	cfg := benchConfig("parest")
	cfg.Tracker = TrackNone
	benchFullSystem(b, cfg)
}

// BenchmarkFullSystemHydra4ch is the same cell as
// BenchmarkFullSystemHydra on a 4-channel organization: it tracks how
// the epoch engine's per-epoch channel scan and merge scale with the
// channel count.
func BenchmarkFullSystemHydra4ch(b *testing.B) {
	cfg := benchConfig("parest")
	cfg.Mem.Channels = 4
	benchFullSystem(b, cfg)
}

// benchFullSystem runs cfg b.N times. Besides ns/op it reports ns/req,
// the cost per memory request served (demand reads and writes,
// metadata transfers and mitigation activations), and req/epoch: a
// configuration that makes the model do more work per cell, such as
// Hydra's metadata traffic, then does not read as slower code.
func benchFullSystem(b *testing.B, cfg Config) {
	b.ReportAllocs()
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	m := res.Mem
	reqs := m.Reads + m.Writes + m.MetaReads + m.MetaWrites + m.MitigActs
	if res.Insts == 0 || reqs == 0 {
		b.Fatal("benchmark simulated no instructions or requests")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(reqs), "ns/req")
	b.ReportMetric(float64(reqs)/float64(m.Epochs), "req/epoch")
}
