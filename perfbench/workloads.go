package main

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workload"
)

// bench is one named benchmark workload: a cold closed-loop campaign
// of one exp.Sweep, the non-secure baseline plus schemes over profiles
// at one scale. Its name is the sweep's target, which prefixes every
// cell key.
type bench struct {
	name     string
	scale    float64
	profiles []string
	schemes  []sim.TrackerKind
}

func benches() []bench {
	return []bench{
		// Figure-5-shaped: memory-intensive profiles under the paper's
		// three compared trackers, where cell time is spent stepping
		// channels, decoding addresses, stepping cores and tracking.
		{
			name:     "sweep-heavy",
			scale:    16,
			profiles: []string{"parest", "bc_t", "GUPS", "gcc"},
			schemes:  []sim.TrackerKind{sim.TrackGraphene, sim.TrackCRA, sim.TrackHydra},
		},
		// Many short low-MPKI cells over every simulated scheme, where
		// per-cell setup (tracker arrays), GC and per-cell harness and
		// cache-store overhead outweigh the memory system.
		{
			name:     "sweep-light",
			scale:    64,
			profiles: []string{"leela", "povray", "perlbench", "imagick", "x264", "wrf"},
			schemes:  exp.ArenaSimSchemes(),
		},
	}
}

func benchByName(name string) (bench, error) {
	var names []string
	for _, b := range benches() {
		if b.name == name {
			return b, nil
		}
		names = append(names, b.name)
	}
	return bench{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

const baselineVariant = "baseline" // the variant name exp gives TrackNone

func (b bench) variants() []exp.Variant {
	vs := make([]exp.Variant, len(b.schemes))
	for i, k := range b.schemes {
		vs[i] = exp.Variant{Name: string(k), Mutate: func(c *sim.Config) { c.Tracker = k }}
	}
	return vs
}

func (b bench) options(seed uint64, workers int, cache *harness.CellCache) exp.Options {
	return exp.Options{
		Scale:       b.scale,
		Workloads:   b.profiles,
		Parallelism: workers,
		Seed:        exp.SeedOf(seed),
		Target:      b.name,
		Cache:       cache,
	}
}

// cell is one simulation of a workload, keyed as exp keys it
// ("target/variant/workload"), with the config exp builds for it and
// that config's content hash.
type cell struct {
	key  string
	cfg  sim.Config
	hash string
}

// cells lists the workload's cells in exp's order: baseline first,
// then each scheme, each over every profile.
func (b bench) cells(seed uint64) ([]cell, error) {
	kinds := append([]sim.TrackerKind{sim.TrackNone}, b.schemes...)
	var out []cell
	for _, k := range kinds {
		variant := string(k)
		if k == sim.TrackNone {
			variant = baselineVariant
		}
		for _, name := range b.profiles {
			p, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			cfg := sim.Default(p)
			cfg.Scale = b.scale
			cfg.TRH = 500
			cfg.Seed = seed
			cfg.Tracker = k
			hash, ok := cfg.CacheKey()
			if !ok {
				return nil, fmt.Errorf("cell %s/%s/%s is not cacheable", b.name, variant, name)
			}
			out = append(out, cell{key: b.name + "/" + variant + "/" + name, cfg: cfg, hash: hash})
		}
	}
	return out, nil
}
