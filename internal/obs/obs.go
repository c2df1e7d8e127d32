// Package obs is the dependency-free observability core of the
// simulator and the sweep engine: a process-wide registry of named
// counters, gauges and duration histograms with atomic hot-path updates,
// plus a deterministic snapshot/diff API that run manifests, the -obs
// flags, the trace exporter and the sweep service's /metricz report
// through.
//
// Design rules:
//
//   - Updates are lock-free atomics. Hot paths hold a *Counter (one
//     registry lookup at construction, or none at all: the simulation
//     kernel batches its per-cycle counts in plain per-System fields
//     and publishes totals here on the cold path, see
//     platform.System.PublishObs), so instrumentation never contends
//     on the registry map.
//   - Metrics are cumulative. Per-run values are taken as
//     Diff(before, after) of two snapshots, which is what the sweep
//     runner records in RunStats.Metrics.
//   - Snapshots are deterministic: map-keyed, zero values elided, and
//     the JSON/String renderings sort names, so two identical runs
//     serialize byte-identically (histograms carry wall time and are
//     the only inherently run-dependent values).
//   - A nil *Registry is the process-wide Default, so a component with
//     an optional registry field passes it along without a fallback.
//
// Naming convention: dotted lowercase paths, subsystem-first —
// "kernel.ff.cycles_saved", "sweep.cache.hits",
// "kernel.policy.<name>.grants". Custom scenarios and policies are
// first-class: register metrics under your own prefix via
// Default().Counter("mypkg.thing") and they flow through every
// manifest and -obs dump like the built-ins.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a level that moves both ways (queue depths, utilization
// percentages, worker counts).
type Gauge struct{ v atomic.Int64 }

// Set stores the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of log2 buckets of a Histogram: bucket 0
// holds 0 ns and bucket i >= 1 holds [2^(i-1), 2^i) ns, which covers
// every non-negative time.Duration.
const histBuckets = 64

// Histogram records the distribution of durations in log2 buckets: an
// observation count and percentiles. Observe is one atomic add and
// allocates nothing; a quantile read from it lands in the bucket of the
// exact one.
type Histogram struct{ b [histBuckets]atomic.Uint64 }

// Observe records one duration; a negative one counts as zero.
func (h *Histogram) Observe(d time.Duration) {
	h.b[bits.Len64(uint64(max(d, 0)))].Add(1)
}

func (h *Histogram) counts() (c [histBuckets]uint64) {
	for i := range h.b {
		c[i] = h.b[i].Load()
	}
	return c
}

// HistogramValue is a Histogram's state in a Snapshot: the observation
// count and three quantiles. The bucket counts behind them are kept
// unexported so Diff can subtract two live snapshots exactly; a value
// decoded from JSON carries only the summary.
type HistogramValue struct {
	Count uint64 `json:"count"`
	P50Ns int64  `json:"p50Ns"`
	P90Ns int64  `json:"p90Ns"`
	P99Ns int64  `json:"p99Ns"`

	buckets [histBuckets]uint64
}

func histValue(c [histBuckets]uint64) HistogramValue {
	v := HistogramValue{buckets: c}
	for _, n := range c {
		v.Count += n
	}
	v.P50Ns, v.P90Ns, v.P99Ns = v.quantile(0.50), v.quantile(0.90), v.quantile(0.99)
	return v
}

// quantile estimates the q-quantile by nearest rank: it finds the
// bucket holding the rank-th smallest observation and interpolates
// linearly inside it, so the estimate shares that observation's bucket.
func (v HistogramValue) quantile(q float64) int64 {
	if v.Count == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(q*float64(v.Count))), 1), v.Count)
	var below uint64
	for i, n := range v.buckets {
		if below+n < rank {
			below += n
			continue
		}
		if i == 0 {
			return 0
		}
		lo, hi := int64(1)<<(i-1), int64(1)<<i-1
		return lo + int64(float64(hi-lo)*float64(rank-below)/float64(n))
	}
	return 0
}

// Snapshot is a point-in-time copy of a registry's metrics. Zero
// values are elided, so a snapshot taken before any activity is empty
// and diffs stay compact. Maps JSON-encode with sorted keys, making
// the encoding deterministic.
type Snapshot struct {
	Counters   map[string]uint64         `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramValue `json:"histograms,omitempty"`
}

// Counter returns the snapshotted value of a counter (zero when
// absent, matching the elision of zero values).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// JSON renders the snapshot as indented, deterministic JSON.
func (s Snapshot) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// String renders the snapshot as sorted "name value" lines (the -obs
// dump format): counters and gauges one per line, histograms as
// "name count=N p50=D p90=D p99=D".
func (s Snapshot) String() string {
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%s count=%d p50=%s p90=%s p99=%s", name, v.Count,
			time.Duration(v.P50Ns), time.Duration(v.P90Ns), time.Duration(v.P99Ns)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// Diff returns the activity between two snapshots of the same
// registry: counters and histograms subtract (entries whose
// delta is zero are elided; a histogram's quantiles are recomputed from
// its bucket deltas), while gauges — levels, not rates — carry b's
// values. It is how a run-scoped metric set is cut out of the
// process-wide cumulative registry.
func Diff(a, b Snapshot) Snapshot {
	var d Snapshot
	for name, vb := range b.Counters {
		if delta := vb - a.Counters[name]; delta != 0 {
			if d.Counters == nil {
				d.Counters = map[string]uint64{}
			}
			d.Counters[name] = delta
		}
	}
	for name, vb := range b.Gauges {
		if d.Gauges == nil {
			d.Gauges = map[string]int64{}
		}
		d.Gauges[name] = vb
	}
	for name, vb := range b.Histograms {
		va := a.Histograms[name]
		if vb.Count == va.Count {
			continue
		}
		var c [histBuckets]uint64
		for i := range c {
			c[i] = vb.buckets[i] - va.buckets[i]
		}
		if d.Histograms == nil {
			d.Histograms = map[string]HistogramValue{}
		}
		d.Histograms[name] = histValue(c)
	}
	return d
}

// Registry holds named metrics. The zero value is not usable; create
// with NewRegistry or use the process-wide Default. A nil *Registry
// stands for Default: its Counter, Gauge, Histogram and Snapshot read
// and write the process-wide registry.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry (tests and embedded uses;
// the tools all report through Default).
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// def is the process-wide registry every layer reports into.
var def = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return def }

// Counter returns the named counter, creating it on first use. The
// returned pointer is stable for the registry's lifetime — hot paths
// look it up once and hold it.
func (r *Registry) Counter(name string) *Counter {
	r = r.orDefault()
	return lookup(r, r.counters, name)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r = r.orDefault()
	return lookup(r, r.gauges, name)
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r = r.orDefault()
	return lookup(r, r.histograms, name)
}

// orDefault resolves a nil registry to Default.
func (r *Registry) orDefault() *Registry {
	if r == nil {
		return def
	}
	return r
}

// lookup returns the metric named name in m, one of r's maps, creating
// it on first use.
func lookup[T any](r *Registry, m map[string]*T, name string) *T {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := m[name]; ok {
		return v
	}
	v = new(T)
	m[name] = v
	return v
}

// checkName rejects names that would corrupt the dump formats. A panic
// (not an error) because a bad metric name is a programming mistake at
// a registration site, never input-dependent.
func checkName(name string) {
	if name == "" || strings.ContainsAny(name, " \t\n") {
		panic(fmt.Sprintf("obs: bad metric name %q (want non-empty, no whitespace)", name))
	}
}

// Snapshot copies the registry's current values. Concurrent updates
// race benignly: each metric is read atomically, and a snapshot is a
// consistent lower bound for monotonic counters.
func (r *Registry) Snapshot() Snapshot {
	r = r.orDefault()
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s Snapshot
	for name, c := range r.counters {
		if v := c.Value(); v != 0 {
			if s.Counters == nil {
				s.Counters = map[string]uint64{}
			}
			s.Counters[name] = v
		}
	}
	for name, g := range r.gauges {
		if v := g.Value(); v != 0 {
			if s.Gauges == nil {
				s.Gauges = map[string]int64{}
			}
			s.Gauges[name] = v
		}
	}
	for name, h := range r.histograms {
		if v := histValue(h.counts()); v.Count != 0 {
			if s.Histograms == nil {
				s.Histograms = map[string]HistogramValue{}
			}
			s.Histograms[name] = v
		}
	}
	return s
}
