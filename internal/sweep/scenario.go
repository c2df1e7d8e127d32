package sweep

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/platform"
	"repro/internal/stats"
)

// Scenario is one registrable experiment: a named workload that expands
// a Job into measurable curves. The engine owns everything generic —
// topology resolution, policy-grid cross-products, the worker pool, the
// disk cache, and the JSON/CSV/table emitters — so a scenario only
// describes what to measure. Implementations registered with Register
// (or the lrscwait.RegisterScenario facade) are addressable by name from
// Job.Kind and the cmd/sweep -kind flag exactly like the built-in
// figure/table kinds.
//
// A scenario may additionally implement Finalizer (cross-point derived
// values) and TableRenderer (a custom aligned-table layout); without the
// latter, results render through a generic metric table.
type Scenario interface {
	// Name is the registry key: the Job.Kind value, the -kind selector,
	// and the default output file stem.
	Name() string

	// Reads declares the optional Job fields the scenario reads. The
	// engine refuses a job that sets any other before Normalize sees it,
	// so a field is never accepted and then ignored, and cmd/sweep hands
	// each kind only the flags it declares.
	Reads() Field

	// Normalize fills the scenario's parameter defaults into the job
	// (simulation windows, swept coordinates, Params entries) and
	// validates scenario-specific fields. The engine has already
	// resolved the topology and refused unread fields, and applies the
	// shared validation — positive bins, canonical grid axes — after
	// this returns. The returned job is what keys the cache and is
	// recorded in the Result, so two specs that normalize identically
	// share cached points.
	Normalize(job Job, topo noc.Topology) (Job, error)

	// Curves expands the normalized job into its logical series. The
	// engine cross-products every curve with the job's grid coordinates:
	// one result series per (curve, coordinate), curve-major, each
	// holding NumPoints independently scheduled points.
	Curves(topo noc.Topology, job Job) ([]Curve, error)
}

// Describer is an optional Scenario extension: Description returns a
// one-line summary of what the scenario measures, shown by cmd/sweep
// -list-kinds next to the kind name. All built-ins implement it; custom
// scenarios are encouraged to, so a grown registry stays navigable.
type Describer interface {
	Description() string
}

// Describe returns the one-line description of the scenario registered
// under name, or "" when the scenario is unregistered or has none.
func Describe(name string) string {
	s, _ := Lookup(name)
	if d, ok := s.(Describer); ok {
		return d.Description()
	}
	return ""
}

// Finalizer is an optional Scenario extension: Finalize computes
// cross-point derived values after all units of a job have landed
// (cached or executed). It must never feed the cache, so cached and
// freshly-run results finalize identically.
type Finalizer interface {
	Finalize(r *Result)
}

// TableRenderer is an optional Scenario extension: Table renders a
// finished result in a scenario-specific aligned-table layout (which
// also defines the CSV column set). Scenarios without it render through
// the generic metric table.
type TableRenderer interface {
	Table(r *Result) *stats.Table
}

// Curve is one logical series of a scenario before policy-grid
// expansion: a name, a baseline policy, what its code needs of that
// policy, and the per-point measurement hooks. The engine overlays each
// grid coordinate on Policy and calls Key and Run once per (effective
// policy, point index) pair; both must be safe for concurrent use and
// deterministic, because Key is the cache identity of the value Run
// produces.
type Curve struct {
	// Name labels the series; grid coordinates are suffixed by the
	// engine.
	Name string
	// NumPoints is the curve's point count.
	NumPoints int
	// Sim reports whether computing a point runs a simulation (pure
	// model arithmetic doesn't; it only affects RunStats accounting).
	Sim bool
	// Policy is the curve's baked-in baseline. A grid coordinate's
	// policy axis replaces its Kind and the parameter axes replace the
	// matching fields; a curve that runs no policy leaves it zero.
	Policy experiments.Policy
	// Needs is the set of reservation classes the curve's code can make
	// progress with; the effective policy must serve at least one of
	// them (platform.Serves). A pair whose policy serves none is not
	// run: the engine leaves its series out and names it in
	// Result.NotRun. Zero needs nothing (AMOs, loads and stores, Mwait).
	Needs platform.Classes
	// Key returns the cache-key fragment of point pt: everything that
	// determines the point's value beyond the engine's own prefix (key
	// namespace, topology shape, windows, Params). A fragment names
	// what Run reads and never a display label such as the curve's
	// Name, so two curves that run the same simulation share one point.
	// The namespace is the scenario's kind, except that the kinds of one
	// built-in scenario type may share one (fig3 and fig4, fig6 and
	// fig6ms), so an equal fragment under either kind is one point.
	// polKey is the effective policy's KeyFragment, computed once per
	// series; it resolves every axis, so a coordinate that merely
	// restates a default hits the same entry as the grid-free run.
	// Return "" — or leave Key nil — for uncacheable points.
	Key func(polKey string, pt int) string
	// Run measures point pt under the effective policy pol.
	Run func(pol experiments.Policy, pt int) Point
}

// The package scenario registry. Built-in kinds register at init; custom
// scenarios register through Register / lrscwait.RegisterScenario.
var (
	regMu    sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds a scenario to the package registry, making it
// addressable from Job.Kind, cmd/sweep -kind, and -list-kinds. A
// duplicate or empty name is rejected so two packages cannot silently
// shadow each other's workloads.
func Register(s Scenario) error {
	name := s.Name()
	if name == "" {
		return fmt.Errorf("sweep: cannot register a scenario with an empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("sweep: scenario %q already registered", name)
	}
	for _, o := range registry {
		// A kind keys under its name, so it must not be another
		// scenario's shared key namespace.
		if keyNamespace(o) == name {
			return fmt.Errorf("sweep: scenario name %q is a reserved cache-key namespace", name)
		}
	}
	registry[name] = s
	return nil
}

// MustRegister is Register, panicking on error. Intended for package
// init of scenario libraries.
func MustRegister(s Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns the scenario registered under name.
func Lookup(name string) (Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// namesList renders the registry for error messages.
func namesList() string {
	names := Names()
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}

// genericTable renders a result for scenarios without a TableRenderer:
// one row per point index, coordinate columns (x, and label when any
// point carries one), and one column per (series, metric) pair. When all
// series share one coordinate sequence the x/label columns are shared;
// otherwise each series gets its own, so measurements are never paired
// with another curve's coordinates. The layout is a readable default,
// not a stable format — scenarios that need a fixed layout implement
// TableRenderer.
func genericTable(r *Result) *stats.Table {
	if len(r.Series) == 0 {
		// A scenario may legitimately expand to no curves (its job
		// selected no work); render an empty table rather than panic.
		return stats.NewTable(fmt.Sprintf("%s (%d cores)", r.Job.Kind, r.Cores))
	}
	// The column set is the union of metric names across all points of a
	// series, so sparsely-set metrics still appear.
	metricsOf := func(s Series) []string {
		set := map[string]bool{}
		for _, p := range s.Points {
			for _, m := range p.Metrics() {
				set[m] = true
			}
		}
		names := make([]string, 0, len(set))
		for m := range set {
			names = append(names, m)
		}
		sort.Strings(names)
		return names
	}
	hasLabel := false
	rows := 0
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Label != "" {
				hasLabel = true
			}
		}
		if len(s.Points) > rows {
			rows = len(s.Points)
		}
	}
	// Series share the x/label columns only when every curve sweeps the
	// same coordinate sequence.
	uniform := true
	for _, s := range r.Series[1:] {
		if len(s.Points) != len(r.Series[0].Points) {
			uniform = false
			break
		}
		for i, p := range s.Points {
			if p.X != r.Series[0].Points[i].X || p.Label != r.Series[0].Points[i].Label {
				uniform = false
				break
			}
		}
	}
	prefix := func(si int, name string) string {
		if len(r.Series) > 1 {
			return r.Series[si].Name + "/" + name
		}
		return name
	}
	// A column is either a coordinate ("x", "label") or a metric of one
	// series; every cell reads from its own series' points.
	type col struct {
		si   int
		name string // "x", "label", or a metric name
	}
	var header []string
	var cols []col
	addCoords := func(si int, shared bool) {
		xName, labelName := prefix(si, "x"), prefix(si, "label")
		if shared {
			xName, labelName = "x", "label"
		}
		header = append(header, xName)
		cols = append(cols, col{si, "x"})
		if hasLabel {
			header = append(header, labelName)
			cols = append(cols, col{si, "label"})
		}
	}
	if uniform {
		addCoords(0, true)
	}
	for si, s := range r.Series {
		if !uniform {
			addCoords(si, false)
		}
		for _, m := range metricsOf(s) {
			header = append(header, prefix(si, m))
			cols = append(cols, col{si, m})
		}
	}
	t := stats.NewTable(fmt.Sprintf("%s (%d cores)", r.Job.Kind, r.Cores), header...)
	for i := 0; i < rows; i++ {
		var row []string
		for _, c := range cols {
			pts := r.Series[c.si].Points
			cell := ""
			if i < len(pts) {
				switch c.name {
				case "x":
					cell = strconv.Itoa(pts[i].X)
				case "label":
					cell = pts[i].Label
				default:
					if v, ok := pts[i].Metric(c.name); ok {
						cell = strconv.FormatFloat(v, 'g', -1, 64)
					}
				}
			}
			row = append(row, cell)
		}
		t.Add(row...)
	}
	return t
}

// Column is one per-series column of a swept table: headed by the
// series name plus Suffix, each cell prints the point's Metric with
// Decimals digits after the point.
type Column struct {
	Suffix   string
	Metric   string
	Decimals int
}

// BandColumns are the columns of a throughput curve with its per-core
// fairness band (Fig. 6's shading): ops/cycle, then the slowest and the
// fastest core.
var BandColumns = []Column{
	{Metric: MetricThroughput, Decimals: 4},
	{Suffix: "-min", Metric: MetricMinPerCore, Decimals: 5},
	{Suffix: "-max", Metric: MetricMaxPerCore, Decimals: 5},
}

// SweptTable renders the layout every curve kind shares: one row per
// swept coordinate, headed xHeader, and one column per (series,
// column) pair, series-major. The coordinates are the first series'
// point X values; every curve of a swept kind sweeps the same ones.
func SweptTable(r *Result, title, xHeader string, cols ...Column) *stats.Table {
	header := []string{xHeader}
	for _, s := range r.Series {
		for _, c := range cols {
			header = append(header, s.Name+c.Suffix)
		}
	}
	t := stats.NewTable(title, header...)
	if len(r.Series) == 0 {
		return t
	}
	read := make([]func(*Point) float64, len(cols))
	for i, c := range cols {
		read[i] = metricReader(c.Metric)
	}
	row := make([]string, 0, len(header))
	for pi, p := range r.Series[0].Points {
		row = append(row[:0], strconv.Itoa(p.X))
		for _, s := range r.Series {
			for i, c := range cols {
				row = append(row, stats.F(read[i](&s.Points[pi]), c.Decimals))
			}
		}
		t.Add(row...)
	}
	return t
}
