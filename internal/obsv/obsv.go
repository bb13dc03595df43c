// Package obsv is the observability layer of the reproduction: a
// lightweight metrics registry, a ring-buffer event tracer, and a
// machine-readable run-report schema. It is stdlib-only and imported
// by the simulation layers (internal/memsim, internal/sim,
// internal/core, internal/track) and the experiment harness
// (internal/exp), so every figure and table run can emit a structured
// artifact that is comparable across PRs.
//
// The design is pull-based, like a Prometheus collector: components
// accumulate plain counters and fixed-bucket histograms on their hot
// paths (a few integer adds), and a Registry gathers them into a named
// snapshot only when a report is built. Nothing in this package sits
// on a simulation hot path unless explicitly enabled; the Tracer in
// particular is a nil pointer when disabled, reducing its cost to one
// predictable branch per event site.
//
// Metric names are dotted lowercase ("memsim.reads", "rct.fetches",
// "mitig.issued"); every name, its unit and its paper counterpart are
// documented in docs/METRICS.md.
package obsv

import (
	"fmt"
	"sort"
	"sync"
)

// MetricType discriminates the snapshot representation of a metric.
type MetricType string

// Metric types.
const (
	TypeCounter   MetricType = "counter"   // monotonically accumulated int64
	TypeGauge     MetricType = "gauge"     // instantaneous float64
	TypeHistogram MetricType = "histogram" // fixed-bucket distribution
)

// Metric is one named measurement in a snapshot. Exactly one of the
// value fields is meaningful, selected by Type.
type Metric struct {
	Type  MetricType `json:"type"`
	Value float64    `json:"value"`          // counter (as float) or gauge
	Hist  *Hist      `json:"hist,omitempty"` // histogram buckets
	Unit  string     `json:"unit,omitempty"`
}

// String formats the metric's value: counters as integers, gauges
// with full float precision, histograms via Hist.String.
func (m Metric) String() string {
	switch m.Type {
	case TypeHistogram:
		if m.Hist == nil {
			return "n=0"
		}
		return m.Hist.String()
	case TypeCounter:
		return fmt.Sprintf("%d", int64(m.Value))
	default:
		return fmt.Sprintf("%g", m.Value)
	}
}

// Metrics is a named snapshot, the unit the run report carries.
type Metrics map[string]Metric

// Names returns the metric names in sorted order (stable output).
func (m Metrics) Names() []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Counter returns the integer value of a counter metric (0 if absent).
func (m Metrics) Counter(name string) int64 {
	return int64(m[name].Value)
}

// Merge accumulates other into m: counters add, gauges keep the
// maximum (the conservative aggregate for saturation-style gauges),
// histograms merge bucket-wise. Metrics only present in other are
// copied. Merge is how the harness aggregates per-run snapshots into
// one report-level view.
func (m Metrics) Merge(other Metrics) {
	for name, om := range other {
		cur, ok := m[name]
		if !ok {
			if om.Hist != nil {
				h := om.Hist.Clone()
				om.Hist = &h
			}
			m[name] = om
			continue
		}
		switch cur.Type {
		case TypeCounter:
			cur.Value += om.Value
		case TypeGauge:
			if om.Value > cur.Value {
				cur.Value = om.Value
			}
		case TypeHistogram:
			if cur.Hist != nil && om.Hist != nil {
				merged := cur.Hist.Clone()
				merged.Merge(*om.Hist)
				cur.Hist = &merged
				// Keep the headline value (= observation count) in step
				// with the merged histogram, so aggregates are identical
				// regardless of merge order.
				cur.Value = float64(merged.N)
			}
		}
		m[name] = cur
	}
}

// Registry collects metrics from simulation components into one named
// snapshot. It is safe for concurrent use: campaign workers may merge
// finished-run snapshots into a shared live registry while an HTTP
// scrape (obsv.Server) gathers it, so /metrics stays consistent
// mid-campaign. Per-run registries still pay only uncontended locks.
type Registry struct {
	mu      sync.Mutex
	metrics Metrics
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: Metrics{}}
}

// Source is implemented by components that can register their counters
// into a Registry: memsim.Stats, core.Stats, the baseline trackers.
type Source interface {
	CollectInto(r *Registry)
}

// Count registers a counter metric. Registering the same name again
// accumulates, so per-channel or per-run sources can share names.
func (r *Registry) Count(name string, v int64) {
	r.mu.Lock()
	m := r.metrics[name]
	m.Type = TypeCounter
	m.Value += float64(v)
	r.metrics[name] = m
	r.mu.Unlock()
}

// Gauge registers an instantaneous value (mean latency, occupancy
// fraction). Re-registering overwrites.
func (r *Registry) Gauge(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = Metric{Type: TypeGauge, Value: v}
	r.mu.Unlock()
}

// Histogram registers a distribution. The histogram is copied, so the
// source may keep mutating its own.
func (r *Registry) Histogram(name string, h Hist) {
	c := h.Clone()
	r.mu.Lock()
	r.metrics[name] = Metric{Type: TypeHistogram, Value: float64(h.N), Hist: &c}
	r.mu.Unlock()
}

// Merge accumulates a finished run's snapshot into the registry with
// the same semantics as Metrics.Merge (counters add, gauges max,
// histograms merge bucket-wise). This is how the campaign harness
// keeps one live, scrapeable view across concurrently finishing cells.
func (r *Registry) Merge(m Metrics) {
	r.mu.Lock()
	r.metrics.Merge(m)
	r.mu.Unlock()
}

// Snapshot returns a deep copy of the collected metrics, safe to hold
// while the registry keeps accumulating.
func (r *Registry) Snapshot() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Metrics, len(r.metrics))
	for name, m := range r.metrics {
		if m.Hist != nil {
			h := m.Hist.Clone()
			m.Hist = &h
		}
		out[name] = m
	}
	return out
}

// Len reports how many metrics have been registered.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.metrics)
}

// String renders the snapshot compactly for logs and tests.
func (r *Registry) String() string {
	m := r.Snapshot()
	s := ""
	for _, name := range m.Names() {
		s += fmt.Sprintf("%s: %s\n", name, m[name])
	}
	return s
}
