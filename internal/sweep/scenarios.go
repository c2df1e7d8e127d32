package sweep

import (
	"fmt"
	"strconv"

	"repro/internal/area"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/platform"
	"repro/internal/stats"
)

// The paper's seven experiments, re-implemented as registered scenarios.
// The engine (sweep.go, runner.go, result.go) never mentions them: they
// flow through the same Scenario interface as a custom out-of-tree
// workload, so they double as the reference implementations for the open
// API.

// Per-kind default simulation parameters, filled in by the scenarios'
// Normalize.
const (
	defaultHistWarmup, defaultHistMeasure       = 3000, 10000 // fig3, fig4
	defaultFig5Warmup, defaultFig5Measure       = 4000, 20000
	defaultFig6Warmup, defaultFig6Measure       = 3000, 12000
	defaultTableIIWarmup, defaultTableIIMeasure = 4000, 20000
	defaultMatN                                 = 128
)

func init() {
	MustRegister(histScenario{kind: Fig3, specs: func(topo noc.Topology) []experiments.HistSpec {
		return experiments.Fig3Specs(topo.NumCores())
	}, title: "Fig. 3 — histogram updates/cycle vs #bins"})
	MustRegister(histScenario{kind: Fig4, specs: func(noc.Topology) []experiments.HistSpec {
		return experiments.Fig4Specs()
	}, title: "Fig. 4 — lock implementations, histogram updates/cycle vs #bins"})
	MustRegister(interferenceScenario{})
	MustRegister(queueScenario{kind: Fig6, specs: experiments.Fig6Specs,
		title: "Fig. 6 — queue accesses/cycle vs #cores (fetch-and-add ring)"})
	MustRegister(queueScenario{kind: Fig6MS, specs: experiments.Fig6MSSpecs,
		title: "Fig. 6 — queue accesses/cycle vs #cores (Michael-Scott queue)"})
	MustRegister(areaScenario{})
	MustRegister(energyScenario{})
}

// Merge overlays the coordinate's set axes on a policy baseline. A
// policy axis replaces the baseline's hardware policy by registered
// name; grid backoffs are literal cycles, so they are re-encoded in the
// Policy convention (0 cycles -> the negative no-backoff sentinel).
// Scenario implementations use it to derive the effective per-point
// policy from their spec's baked-in one: spec.Policy = g.Merge(spec.Policy).
func (g GridCoord) Merge(base experiments.Policy) experiments.Policy {
	if g.Policy != nil {
		base.Kind = platform.PolicyKind(*g.Policy)
	}
	if g.QueueCap != nil {
		base.QueueCap = *g.QueueCap
	}
	if g.ColibriQueues != nil {
		base.ColibriQueues = *g.ColibriQueues
	}
	if g.Backoff != nil {
		base.Backoff = experiments.LiteralBackoff(*g.Backoff)
	}
	return base
}

// histSpecKey canonicalizes a histogram curve spec together with the
// effective policy it runs under. The policy owns its key fragment
// (Policy.KeyFragment): the registered kind name plus every parameter
// fully resolved, so a grid value that merely restates a default (e.g.
// backoff=128, colibriq=4, or the spec's own policy name) hits the same
// cache entry as the grid-free run: it is the same simulation. Jobs
// differing in any effective axis get distinct keys.
func histSpecKey(s experiments.HistSpec) string {
	return fmt.Sprintf("%s|v%d|%s", s.Name, s.Variant, s.Policy.KeyFragment())
}

// queueSpecKey canonicalizes a queue curve spec and its effective,
// fully-resolved policy (see histSpecKey).
func queueSpecKey(s experiments.QueueSpec) string {
	return fmt.Sprintf("%s|v%d|ms%t|%s", s.Name, s.Variant, s.MS, s.Policy.KeyFragment())
}

// histScenario is fig3/fig4: histogram throughput vs contention, one
// curve per (software variant × hardware policy) spec.
type histScenario struct {
	kind  Kind
	title string
	specs func(topo noc.Topology) []experiments.HistSpec
}

func (s histScenario) Name() string        { return string(s.kind) }
func (s histScenario) GridAxes() bool      { return true }
func (s histScenario) Description() string { return s.title }

func (s histScenario) Normalize(j Job, topo noc.Topology) (Job, error) {
	j.defaultWindows(defaultHistWarmup, defaultHistMeasure)
	if len(j.Bins) == 0 {
		j.Bins = experiments.StandardBins(topo)
	}
	return j, nil
}

func (s histScenario) Curves(topo noc.Topology, j Job) ([]Curve, error) {
	warmup, measure := j.Windows()
	var curves []Curve
	for _, spec := range s.specs(topo) {
		at := func(g GridCoord) experiments.HistSpec {
			merged := spec
			merged.Policy = g.Merge(merged.Policy)
			return merged
		}
		curves = append(curves, Curve{
			Name: spec.Name, NumPoints: len(j.Bins), Sim: true,
			Key: func(g GridCoord, pt int) string {
				return fmt.Sprintf("%s|bins%d", histSpecKey(at(g)), j.Bins[pt])
			},
			Run: func(g GridCoord, pt int) Point {
				p := experiments.RunHistogramPoint(at(g), topo, j.Bins[pt], warmup, measure)
				return Point{X: j.Bins[pt], Throughput: p.Throughput}
			},
		})
	}
	return curves, nil
}

func (s histScenario) Table(r *Result) *stats.Table {
	header := []string{"#bins"}
	for _, sr := range r.Series {
		header = append(header, sr.Name)
	}
	warmup, measure := r.Job.Windows()
	t := stats.NewTable(fmt.Sprintf("%s (%d cores, warmup %d, measure %d)",
		s.title, r.Cores, warmup, measure), header...)
	for i, bins := range r.Job.Bins {
		row := []string{strconv.Itoa(bins)}
		for _, sr := range r.Series {
			row = append(row, stats.F(sr.Points[i].Throughput, 4))
		}
		t.Add(row...)
	}
	return t
}

// interferenceScenario is fig5: relative matmul worker throughput while
// poller cores hammer histogram bins, one curve per (spec, ratio) pair.
type interferenceScenario struct{}

func (interferenceScenario) Name() string   { return string(Fig5) }
func (interferenceScenario) GridAxes() bool { return true }
func (interferenceScenario) Description() string {
	return "Fig. 5 — relative matmul throughput under atomics interference"
}

func (interferenceScenario) Normalize(j Job, topo noc.Topology) (Job, error) {
	j.defaultWindows(defaultFig5Warmup, defaultFig5Measure)
	if len(j.Bins) == 0 {
		j.Bins = []int{1, 4, 8, 12, 16}
	}
	if j.MatN == 0 {
		j.MatN = defaultMatN
	}
	return j, nil
}

func (interferenceScenario) Curves(topo noc.Topology, j Job) ([]Curve, error) {
	warmup, measure := j.Windows()
	var curves []Curve
	for _, c := range experiments.Fig5Curves(topo.NumCores()) {
		at := func(g GridCoord) experiments.HistSpec {
			merged := c.Spec
			merged.Policy = g.Merge(merged.Policy)
			return merged
		}
		curves = append(curves, Curve{
			Name: c.Name, NumPoints: len(j.Bins), Sim: true,
			Key: func(g GridCoord, pt int) string {
				return fmt.Sprintf("%s|r%d:%d|n%d|bins%d", histSpecKey(at(g)),
					c.Ratio.Pollers, c.Ratio.Workers, j.MatN, j.Bins[pt])
			},
			Run: func(g GridCoord, pt int) Point {
				p := experiments.RunInterferencePoint(at(g), topo, c.Ratio,
					j.Bins[pt], j.MatN, warmup, measure)
				return Point{X: j.Bins[pt], Rel: p.Rel,
					BaselineOps: p.BaselineOps, LoadedOps: p.LoadedOps}
			},
		})
	}
	return curves, nil
}

func (interferenceScenario) Table(r *Result) *stats.Table {
	header := []string{"#bins"}
	for _, s := range r.Series {
		header = append(header, s.Name)
	}
	t := stats.NewTable(fmt.Sprintf(
		"Fig. 5 — relative matmul throughput under atomics interference (%d cores)",
		r.Cores), header...)
	for i, bins := range r.Job.Bins {
		row := []string{strconv.Itoa(bins)}
		for _, s := range r.Series {
			row = append(row, stats.F(s.Points[i].Rel, 3))
		}
		t.Add(row...)
	}
	return t
}

// queueScenario is fig6/fig6ms: concurrent-queue throughput and fairness
// as the number of participating cores grows.
type queueScenario struct {
	kind  Kind
	title string
	specs func() []experiments.QueueSpec
}

func (s queueScenario) Name() string        { return string(s.kind) }
func (s queueScenario) GridAxes() bool      { return true }
func (s queueScenario) Description() string { return s.title }

func (s queueScenario) Normalize(j Job, topo noc.Topology) (Job, error) {
	j.defaultWindows(defaultFig6Warmup, defaultFig6Measure)
	return j, nil
}

func (s queueScenario) Curves(topo noc.Topology, j Job) ([]Curve, error) {
	warmup, measure := j.Windows()
	counts := experiments.Fig6Counts(topo)
	var curves []Curve
	for _, spec := range s.specs() {
		at := func(g GridCoord) experiments.QueueSpec {
			merged := spec
			merged.Policy = g.Merge(merged.Policy)
			return merged
		}
		curves = append(curves, Curve{
			Name: spec.Name, NumPoints: len(counts), Sim: true,
			Key: func(g GridCoord, pt int) string {
				return fmt.Sprintf("%s|active%d", queueSpecKey(at(g)), counts[pt])
			},
			Run: func(g GridCoord, pt int) Point {
				p := experiments.RunQueuePoint(at(g), topo, counts[pt], warmup, measure)
				return Point{X: counts[pt], Throughput: p.Throughput,
					MinPerCore: p.MinPerCore, MaxPerCore: p.MaxPerCore}
			},
		})
	}
	return curves, nil
}

func (s queueScenario) Table(r *Result) *stats.Table {
	header := []string{"#cores"}
	for _, sr := range r.Series {
		header = append(header, sr.Name, sr.Name+"-min", sr.Name+"-max")
	}
	t := stats.NewTable(fmt.Sprintf(
		"Fig. 6 — queue accesses/cycle vs #cores (%d-core system; min/max = per-core band)",
		r.Cores), header...)
	if len(r.Series) == 0 {
		return t
	}
	for i := range r.Series[0].Points {
		row := []string{strconv.Itoa(r.Series[0].Points[i].X)}
		for _, sr := range r.Series {
			p := sr.Points[i]
			row = append(row, stats.F(p.Throughput, 4),
				stats.F(p.MinPerCore, 5), stats.F(p.MaxPerCore, 5))
		}
		t.Add(row...)
	}
	return t
}

// areaScenario is table1: the tile area model. Pure arithmetic — its
// points are uncacheable (cheaper to recompute than to hash) and don't
// count as simulations.
type areaScenario struct{}

func (areaScenario) Name() string   { return string(TableI) }
func (areaScenario) GridAxes() bool { return false }
func (areaScenario) Description() string {
	return "Table I — mempool_tile area with different LRSCwait designs"
}

func (areaScenario) Normalize(j Job, topo noc.Topology) (Job, error) {
	if j.Cores == 0 {
		j.Cores = topo.NumCores()
	}
	return j, nil
}

func (areaScenario) Curves(topo noc.Topology, j Job) ([]Curve, error) {
	m := area.Default()
	rows := area.TableI(m, j.Cores)
	// Registered policies implementing the area.PolicyRows hook
	// contribute their own designs after the published configurations
	// (registry order is sorted, so the layout is deterministic). The
	// built-ins are already covered by TableI and add nothing.
	for _, name := range platform.PolicyNames() {
		pol, ok := platform.LookupPolicy(name)
		if !ok {
			continue
		}
		if pr, ok := pol.(area.PolicyRows); ok {
			extra := pr.AreaRows(m, j.Cores)
			for i := range extra {
				extra[i].OverheadP = m.Overhead(extra[i].AreaKGE)
			}
			rows = append(rows, extra...)
		}
	}
	return []Curve{{
		Name: string(TableI), NumPoints: len(rows),
		Run: func(g GridCoord, pt int) Point {
			r := rows[pt]
			return Point{X: pt, Label: r.Design, Params: r.Params,
				AreaKGE: r.AreaKGE, OverheadPct: r.OverheadP, PaperKGE: r.PaperKGE}
		},
	}}, nil
}

func (areaScenario) Table(r *Result) *stats.Table {
	t := stats.NewTable("Table I — area of a mempool_tile with different LRSCwait designs",
		"architecture", "parameters", "model kGE", "model %", "paper kGE")
	for _, p := range r.points() {
		paper := "-"
		if p.PaperKGE > 0 {
			paper = stats.F(p.PaperKGE, 0)
		}
		t.Add(p.Label, p.Params, stats.F(p.AreaKGE, 1),
			stats.F(100+p.OverheadPct, 1), paper)
	}
	return t
}

// energyScenario is table2: energy per atomic access at the highest
// contention level, from activity counters and the calibrated energy
// model, with the published reference values alongside.
type energyScenario struct{}

func (energyScenario) Name() string   { return string(TableII) }
func (energyScenario) GridAxes() bool { return false }
func (energyScenario) Description() string {
	return "Table II — energy per atomic access at highest contention"
}

func (energyScenario) Normalize(j Job, topo noc.Topology) (Job, error) {
	j.defaultWindows(defaultTableIIWarmup, defaultTableIIMeasure)
	return j, nil
}

func (energyScenario) Curves(topo noc.Topology, j Job) ([]Curve, error) {
	warmup, measure := j.Windows()
	specs := experiments.TableIISpecs()
	// The rows are the paper's fixed built-in policies, which share the
	// one calibrated model; the energy.PolicyWeights hook applies where
	// a custom policy is actually configured (cmd/lrscwait-sim).
	params := energy.Default()
	return []Curve{{
		Name: string(TableII), NumPoints: len(specs), Sim: true,
		Key: func(g GridCoord, pt int) string {
			spec := specs[pt]
			return fmt.Sprintf("%s|energy", histSpecKey(spec))
		},
		Run: func(g GridCoord, pt int) Point {
			spec := specs[pt]
			p := experiments.RunHistogramPoint(spec, topo, 1, warmup, measure)
			ref := experiments.TableIIPaperRef(spec.Name)
			return Point{X: pt, Label: spec.Name, Backoff: ref.Backoff,
				PowerMW: params.PowerMW(p.Activity, experiments.TableIIFreqMHz),
				PJPerOp: params.PerOpPJ(p.Activity), PaperPJ: ref.PJ}
		},
	}}, nil
}

// Finalize fills each row's DeltaPct relative to the colibri row, as the
// paper reports. It is a cross-point derivation, deliberately never
// cached, so cold and warm runs finalize identically.
func (energyScenario) Finalize(r *Result) {
	if len(r.Series) == 0 {
		return
	}
	points := r.Series[0].Points
	var colibriPJ float64
	for _, p := range points {
		if p.Label == "colibri" {
			colibriPJ = p.PJPerOp
		}
	}
	for i := range points {
		if colibriPJ > 0 {
			points[i].DeltaPct = (points[i].PJPerOp/colibriPJ - 1) * 100
		}
	}
}

func (energyScenario) Table(r *Result) *stats.Table {
	t := stats.NewTable(fmt.Sprintf(
		"Table II — energy per atomic access at highest contention (%d cores, %d MHz)",
		r.Cores, experiments.TableIIFreqMHz),
		"atomic access", "backoff", "power (mW)", "energy (pJ/op)", "delta", "paper pJ/op")
	for _, p := range r.points() {
		delta := "±0%"
		if p.DeltaPct != 0 {
			delta = fmt.Sprintf("%+.0f%%", p.DeltaPct)
		}
		t.Add(p.Label, strconv.Itoa(p.Backoff), stats.F(p.PowerMW, 1),
			stats.F(p.PJPerOp, 0), delta, stats.F(p.PaperPJ, 0))
	}
	return t
}
