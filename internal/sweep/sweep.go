// Package sweep is the parallel sweep orchestration engine: it turns a
// declarative Job (scenario kind × topology × parameters) into the set
// of independent simulation points behind an experiment's figures and
// tables, fans those points out across a worker pool (every point is its
// own deterministic platform.System), memoizes finished points in a
// content-hash disk cache, and assembles structured Results with JSON,
// CSV and aligned-table emitters.
//
// Workloads are open: an experiment is a Scenario registered by name
// (see Register), and the engine is written once against that interface
// — worker pool, policy-grid cross-products, caching and emitters apply
// to custom scenarios exactly as to the built-in paper kinds, which are
// themselves registered scenarios (scenarios.go).
//
// The engine guarantees deterministic output: results are placed by
// index, never by completion order, so a sweep run on one worker is
// byte-identical (as JSON) to the same sweep on many workers, and a
// warm-cache re-run executes zero simulations.
package sweep

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/platform"
)

// Kind names one registered scenario (see Register / Names).
type Kind string

// The built-in scenario kinds: the experiments of the paper's evaluation.
const (
	Fig3    Kind = "fig3"   // histogram throughput vs contention
	Fig4    Kind = "fig4"   // lock implementations vs contention
	Fig5    Kind = "fig5"   // matmul interference under atomics load
	Fig6    Kind = "fig6"   // queue scaling on the FAA ring
	Fig6MS  Kind = "fig6ms" // queue scaling on the Michael-Scott queue
	TableI  Kind = "table1" // tile area model
	TableII Kind = "table2" // energy per atomic access
)

// Kinds lists the built-in kinds in presentation order. Names lists
// every registered scenario, including custom ones.
func Kinds() []Kind {
	return []Kind{Fig3, Fig4, Fig5, Fig6, Fig6MS, TableI, TableII}
}

// cacheVersion invalidates every cached point when the simulator or the
// calibrated models change incompatibly. v5: a point is keyed by what is
// simulated — fig3/fig4 and fig6/fig6ms share a namespace and curve
// labels left the key — so every v4 entry is stale.
const cacheVersion = "v5"

// Job is a declarative sweep specification. Zero-valued fields select
// the scenario's defaults (see Normalize and Scenario.Normalize). The
// policy-grid axes live in the embedded Grid; its fields encode in
// place, so a Job's JSON (and with it every cache key and ETag) does not
// depend on the embedding.
type Job struct {
	Kind Kind   `json:"kind"`
	Topo string `json:"topo"` // experiments.TopoByName key; default "mempool"

	// Bins overrides the scenario's swept coordinate values (bin counts,
	// active cores).
	Bins []int `json:"bins,omitempty"`
	// Warmup and Measure are the simulation windows in cycles. Zero
	// selects the scenario default; a negative value requests a literal
	// zero-cycle window (Windows resolves it).
	Warmup  int `json:"warmup"`
	Measure int `json:"measure"`
	// MatN is the fig5 matrix dimension (>= worker count).
	MatN int `json:"matn,omitempty"`
	// Cores is the table1 ideal-queue extrapolation core count.
	Cores int `json:"cores,omitempty"`

	// Grid holds the policy-grid axes (scenarios that read FieldGrid).
	// Embedded, so its axes encode as the job's own JSON fields.
	Grid

	// Params carries free-form scenario-defined parameters, read in
	// Normalize/Curves by the scenarios that declare FieldParams. Every
	// entry is part of the cache identity.
	Params map[string]string `json:"params,omitempty"`
}

// DefaultWindows fills zero simulation windows with scenario defaults;
// the negative literal-zero sentinel survives. Scenario Normalize
// implementations call it.
func (j *Job) DefaultWindows(warmup, measure int) {
	if j.Warmup == 0 {
		j.Warmup = warmup
	}
	if j.Measure == 0 {
		j.Measure = measure
	}
}

// Field is a set of the Job's optional fields: a scenario declares the
// ones it reads (Scenario.Reads), and Normalize refuses any other.
type Field uint8

// The optional Job fields.
const (
	FieldBins    Field = 1 << iota // Bins
	FieldWindows                   // Warmup and Measure
	FieldMatN                      // MatN
	FieldCores                     // Cores
	FieldGrid                      // the policy-grid axes
	FieldParams                    // Params
)

// fields describes each Field bit, in bit order: its name in refusals,
// whether a job sets it, and how to clear it.
var fields = [...]struct {
	name  string
	set   func(*Job) bool
	clear func(*Job)
}{
	{"bins", func(j *Job) bool { return len(j.Bins) > 0 }, func(j *Job) { j.Bins = nil }},
	{"warmup/measure", func(j *Job) bool { return j.Warmup != 0 || j.Measure != 0 },
		func(j *Job) { j.Warmup, j.Measure = 0, 0 }},
	{"matn", func(j *Job) bool { return j.MatN != 0 }, func(j *Job) { j.MatN = 0 }},
	{"cores", func(j *Job) bool { return j.Cores != 0 }, func(j *Job) { j.Cores = 0 }},
	{"policy-grid axes", func(j *Job) bool { return !j.Grid.IsZero() }, func(j *Job) { j.Grid = Grid{} }},
	{"params", func(j *Job) bool { return len(j.Params) > 0 }, func(j *Job) { j.Params = nil }},
}

// Fields returns the optional fields the job sets.
func (j Job) Fields() Field {
	var f Field
	for i, fd := range fields {
		if fd.set(&j) {
			f |= 1 << i
		}
	}
	return f
}

// Only returns the job with every optional field outside f cleared.
func (j Job) Only(f Field) Job {
	for i, fd := range fields {
		if f&(1<<i) == 0 {
			fd.clear(&j)
		}
	}
	return j
}

// CheckParams refuses a Params key outside allowed: every entry keys the
// cache, so an unknown one would fork it while being ignored.
func (j Job) CheckParams(allowed ...string) error {
	for _, k := range slices.Sorted(maps.Keys(j.Params)) {
		if !slices.Contains(allowed, k) {
			return fmt.Errorf("sweep: %s: unknown param %q (allowed: %s)", j.Kind, k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// Windows returns the job's warmup and measure windows in cycles,
// resolving the negative literal-zero sentinel.
func (j Job) Windows() (warmup, measure int) {
	return max(j.Warmup, 0), max(j.Measure, 0)
}

// gridPoints expands the job's set axes into the cross-product of grid
// coordinates, Policies-major then QueueCaps, in normalized (ascending)
// order. A job with no grid yields the single zero coordinate: no
// overrides.
func (j Job) gridPoints() []GridCoord {
	coords := []GridCoord{{}}
	cross := func(n int, set func(*GridCoord, int)) {
		if n == 0 {
			return
		}
		out := make([]GridCoord, 0, len(coords)*n)
		for _, c := range coords {
			for i := 0; i < n; i++ {
				next := c
				set(&next, i)
				out = append(out, next)
			}
		}
		coords = out
	}
	cross(len(j.Policies), func(c *GridCoord, i int) { c.Policy = &j.Policies[i] })
	cross(len(j.QueueCaps), func(c *GridCoord, i int) { c.QueueCap = &j.QueueCaps[i] })
	cross(len(j.ColibriQueues), func(c *GridCoord, i int) { c.ColibriQueues = &j.ColibriQueues[i] })
	cross(len(j.Backoffs), func(c *GridCoord, i int) { c.Backoff = &j.Backoffs[i] })
	return coords
}

// gridName suffixes a series name with its grid coordinate.
func gridName(name string, g GridCoord) string {
	if g.IsZero() {
		return name
	}
	return name + " [" + g.Label() + "]"
}

// Normalize resolves the job's scenario from the registry, refuses any
// optional field the scenario does not read (Scenario.Reads), fills the
// scenario's defaults, and applies the shared validation. Grid axes are
// canonicalized — sorted ascending with duplicates removed — so value
// order can never fork cache identities. The returned job is what keys
// the cache and is recorded in the Result, so two specs that normalize
// identically share cached points.
func (j Job) Normalize() (Job, error) {
	sc, ok := Lookup(string(j.Kind))
	if !ok {
		return j, fmt.Errorf("sweep: unknown kind %q (registered: %s)", j.Kind, namesList())
	}
	if j.Topo == "" {
		j.Topo = "mempool"
	}
	topo, ok := experiments.TopoByName(j.Topo)
	if !ok {
		return j, fmt.Errorf("sweep: unknown topology %q", j.Topo)
	}
	if unread := j.Fields() &^ sc.Reads(); unread != 0 {
		return j, fmt.Errorf("sweep: %s takes no %s", j.Kind, fields[bits.TrailingZeros8(uint8(unread))].name)
	}
	// The scenario's Normalize may write canonical entries into Params;
	// it writes into a copy, so the caller's map (one CLI map may feed
	// several jobs) never changes under it.
	j.Params = maps.Clone(j.Params)
	if len(j.Params) == 0 {
		j.Params = nil
	}
	j, err := sc.Normalize(j, topo)
	if err != nil {
		return j, err
	}
	for _, b := range j.Bins {
		if b <= 0 {
			return j, fmt.Errorf("sweep: bad bin count %d", b)
		}
	}
	if !j.Grid.IsZero() {
		j.Policies = canonAxis(j.Policies)
		j.QueueCaps = canonAxis(j.QueueCaps)
		j.ColibriQueues = canonAxis(j.ColibriQueues)
		j.Backoffs = canonAxis(j.Backoffs)
		for _, name := range j.Policies {
			if _, ok := platform.LookupPolicy(name); !ok {
				return j, fmt.Errorf("sweep: unknown policy %q (registered: %s)",
					name, strings.Join(platform.PolicyNames(), ", "))
			}
		}
		for _, v := range j.QueueCaps {
			if v < 0 {
				return j, fmt.Errorf("sweep: bad grid queuecap %d (0 = ideal, else slots)", v)
			}
		}
		for _, v := range j.ColibriQueues {
			if v < 1 {
				return j, fmt.Errorf("sweep: bad grid colibriq %d (need >= 1 head/tail pair)", v)
			}
		}
		for _, v := range j.Backoffs {
			if v < 0 {
				return j, fmt.Errorf("sweep: bad grid backoff %d (cycles, 0 = none)", v)
			}
		}
	}
	return j, nil
}

// canonAxis sorts a grid axis ascending and removes duplicates (it
// serves the int parameter axes and the string policy axis alike). Nil
// in, nil out, so grid-free jobs stay byte-identical through Normalize.
func canonAxis[T cmp.Ordered](vals []T) []T {
	if len(vals) == 0 {
		return nil
	}
	out := make([]T, len(vals))
	copy(out, vals)
	slices.Sort(out)
	n := 1
	for _, v := range out[1:] {
		if v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// keyspacer is implemented by a scenario whose kinds share one
// cache-key namespace: their curves' fragments name only what Run reads,
// so an equal fragment under either kind is the same simulation. Every
// other scenario keys under its kind.
type keyspacer interface {
	keyspace() string
}

// keyNamespace is the namespace sc's points key under.
func keyNamespace(sc Scenario) string {
	if ks, ok := sc.(keyspacer); ok {
		return ks.keyspace()
	}
	return sc.Name()
}

// keyPrefix canonicalizes everything every item of the job shares: the
// scenario's key namespace (ns), the topology, the windows and Params. The
// topology is keyed by its full shape (per-tile and per-group structure,
// not just totals — grouping changes NoC distances), so a renamed alias
// of the same machine still hits while a restructured one misses; the
// scenario-defined Params enter sorted so map order cannot fork
// identities. The binary fingerprint invalidates the cache whenever the
// simulator itself is rebuilt with different code; when the binary
// cannot be fingerprinted the prefix is empty, which disables caching
// entirely — running fresh is always safe, serving stale never is.
func (j Job) keyPrefix(ns string, topo noc.Topology) string {
	fp := binaryFingerprint()
	if fp == "" {
		return ""
	}
	warmup, measure := j.Windows()
	prefix := fmt.Sprintf("%s|%s|%s|ct%d|bt%d|tg%d|g%d|w%d|m%d",
		cacheVersion, fp, ns,
		topo.CoresPerTile, topo.BanksPerTile, topo.TilesPerGroup, topo.NumGroups,
		warmup, measure)
	if len(j.Params) > 0 {
		keys := make([]string, 0, len(j.Params))
		for k := range j.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		sb.WriteString(prefix)
		for _, k := range keys {
			// Quoted, not raw: a value containing the key separators
			// ("a" = "1|b=2") must never collapse onto a different map
			// ({"a":"1","b":"2"}) — strconv.Quote escapes embedded
			// quotes, so the encoding is injective.
			fmt.Fprintf(&sb, "|%s=%s", strconv.Quote(k), strconv.Quote(j.Params[k]))
		}
		prefix = sb.String()
	}
	return prefix
}

// ErrNotRun marks the error of a job none of whose (curve, policy)
// pairs can make progress: every series was left out (Curve.Needs).
var ErrNotRun = errors.New("not run")

// expand resolves a normalized job into its series skeleton and the flat
// work-item list, entirely through the job's Scenario: the scenario's
// curves cross-product with the job's grid coordinates — one series per
// (curve, coordinate), curve-major so a curve's grid variants stay
// adjacent — and every (series, point) slot becomes one item. A pair
// whose effective policy serves none of the classes the curve needs is
// left out and named in the result's NotRun notes; a job that keeps no
// series fails with ErrNotRun. Series names and point slots are fully
// determined here, so assembly is pure placement.
func expand(j Job) (*ExpandedJob, error) {
	sc, ok := Lookup(string(j.Kind))
	if !ok {
		return nil, fmt.Errorf("sweep: unknown kind %q (registered: %s)", j.Kind, namesList())
	}
	topo, ok := experiments.TopoByName(j.Topo)
	if !ok {
		return nil, fmt.Errorf("sweep: unknown topology %q", j.Topo)
	}
	curves, err := sc.Curves(topo, j)
	if err != nil {
		return nil, err
	}
	prefix := j.keyPrefix(keyNamespace(sc), topo)
	grid := j.gridPoints()
	e := &ExpandedJob{Job: j, Cores: topo.NumCores()}
	for _, c := range curves {
		if c.Run == nil {
			return nil, fmt.Errorf("sweep: scenario %q curve %q has no Run", j.Kind, c.Name)
		}
		if c.NumPoints < 0 {
			return nil, fmt.Errorf("sweep: scenario %q curve %q has %d points",
				j.Kind, c.Name, c.NumPoints)
		}
		for _, g := range grid {
			// The one place a curve meets its effective policy: the
			// registry is asked once per series what the policy serves
			// and how it keys, and Run sees the coordinate overlaid.
			pol := g.merge(c.Policy)
			name := gridName(c.Name, g)
			if c.Needs != 0 {
				served, err := platform.Serves(pol.Kind, pol.PolicyParams, topo)
				if err != nil {
					return nil, fmt.Errorf("sweep: %s: %w", name, err)
				}
				if c.Needs&served == 0 {
					e.notRun = append(e.notRun, fmt.Sprintf("%s needs %s, which %s does not serve",
						name, c.Needs, pol.Kind))
					continue
				}
			}
			polKey := ""
			if prefix != "" && c.Key != nil {
				polKey = pol.KeyFragment(topo)
			}
			si := len(e.series)
			e.series = append(e.series, Series{Name: name, Grid: g.ref(), Points: make([]Point, c.NumPoints)})
			for pi := 0; pi < c.NumPoints; pi++ {
				key := ""
				if polKey != "" {
					if frag := c.Key(polKey, pi); frag != "" {
						key = prefix + "|" + frag
					}
				}
				e.Items = append(e.Items, WorkItem{
					Series: si, Point: pi, Key: key, Sim: c.Sim,
					run: func() Point { return c.Run(pol, pi) },
				})
			}
		}
	}
	if len(e.series) == 0 && len(e.notRun) > 0 {
		return nil, fmt.Errorf("sweep: %s: %w: %s", j.Kind, ErrNotRun, strings.Join(e.notRun, "; "))
	}
	return e, nil
}

// finalize applies the scenario's cross-point derivations (Finalizer)
// after all items of a job have landed, cached or executed.
func finalize(r *Result) {
	// An unregistered kind looks up a nil Scenario, which is no Finalizer.
	sc, _ := Lookup(string(r.Job.Kind))
	if f, ok := sc.(Finalizer); ok {
		f.Finalize(r)
	}
}
