package sweep

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/area"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/kernels"
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
	defaultRunWarmup, defaultRunMeasure         = 2000, 10000
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
	MustRegister(runScenario{})
}

// histSpecKey canonicalizes what a histogram curve spec simulates: its
// software variant together with polKey, the key fragment of the
// effective policy it runs under. The curve's name is a display label
// no Run reads, so it stays out: two curves that run the same code
// under the same policy share their points. The policy owns its
// fragment (Policy.KeyFragment): the registered kind name plus every
// parameter fully resolved, so a grid value that merely restates a
// default (e.g. backoff=128, colibriq=4, or the spec's own policy name)
// hits the same cache entry as the grid-free run: it is the same
// simulation. Jobs differing in any effective axis get distinct keys.
func histSpecKey(s experiments.HistSpec, polKey string) string {
	return "v" + strconv.Itoa(int(s.Variant)) + "|" + polKey
}

// queueSpecKey canonicalizes what a queue curve spec simulates and its
// effective policy's key fragment (see histSpecKey).
func queueSpecKey(s experiments.QueueSpec, polKey string) string {
	return "v" + strconv.Itoa(int(s.Variant)) + "|ms" + strconv.FormatBool(s.MS) + "|" + polKey
}

// histScenario is fig3/fig4: histogram throughput vs contention, one
// curve per (software variant × hardware policy) spec.
type histScenario struct {
	kind  Kind
	title string
	specs func(topo noc.Topology) []experiments.HistSpec
}

func (s histScenario) Name() string        { return string(s.kind) }
func (s histScenario) Reads() Field        { return FieldBins | FieldWindows | FieldGrid }
func (s histScenario) keyspace() string    { return "hist" } // fig4 re-plots fig3's colibri and lrsc
func (s histScenario) Description() string { return s.title }

func (s histScenario) Normalize(j Job, topo noc.Topology) (Job, error) {
	j.DefaultWindows(defaultHistWarmup, defaultHistMeasure)
	if len(j.Bins) == 0 {
		j.Bins = experiments.StandardBins(topo)
	}
	return j, nil
}

func (s histScenario) Curves(topo noc.Topology, j Job) ([]Curve, error) {
	warmup, measure := j.Windows()
	var curves []Curve
	for _, spec := range s.specs(topo) {
		curves = append(curves, Curve{
			Name: spec.Name, NumPoints: len(j.Bins), Sim: true, Policy: spec.Policy,
			Needs: spec.Variant.Needs(),
			Key: func(polKey string, pt int) string {
				return histSpecKey(spec, polKey) + "|bins" + strconv.Itoa(j.Bins[pt])
			},
			Run: func(pol experiments.Policy, pt int) Point {
				spec := spec
				spec.Policy = pol
				p := experiments.RunHistogramPoint(spec, topo, j.Bins[pt], warmup, measure)
				return Point{X: j.Bins[pt], Throughput: p.Throughput}
			},
		})
	}
	return curves, nil
}

func (s histScenario) Table(r *Result) *stats.Table {
	warmup, measure := r.Job.Windows()
	return SweptTable(r, fmt.Sprintf("%s (%d cores, warmup %d, measure %d)",
		s.title, r.Cores, warmup, measure), "#bins", Column{Metric: MetricThroughput, Decimals: 4})
}

// interferenceScenario is fig5: relative matmul worker throughput while
// poller cores hammer histogram bins, one curve per (spec, ratio) pair.
type interferenceScenario struct{}

func (interferenceScenario) Name() string { return string(Fig5) }
func (interferenceScenario) Reads() Field { return FieldBins | FieldWindows | FieldMatN | FieldGrid }
func (interferenceScenario) Description() string {
	return "Fig. 5 — relative matmul throughput under atomics interference"
}

func (interferenceScenario) Normalize(j Job, topo noc.Topology) (Job, error) {
	j.DefaultWindows(defaultFig5Warmup, defaultFig5Measure)
	if len(j.Bins) == 0 {
		j.Bins = []int{1, 4, 8, 12, 16}
	}
	if j.MatN == 0 {
		j.MatN = defaultMatN
	}
	if j.MatN < 0 {
		return j, fmt.Errorf("sweep: bad matn %d", j.MatN)
	}
	for _, b := range j.Bins { // a bin count below 1 is the engine's error
		if b > 0 && !experiments.InterferenceFits(topo, b, j.MatN) {
			return j, fmt.Errorf("sweep: fig5: bins %d and matn %d do not fit %s's memory", b, j.MatN, j.Topo)
		}
	}
	return j, nil
}

func (interferenceScenario) Curves(topo noc.Topology, j Job) ([]Curve, error) {
	warmup, measure := j.Windows()
	// Every curve and grid coordinate of this expansion shares one
	// baseline per (worker count, point), run when a point first needs it:
	// [2]int{workers, pt} -> sync.OnceValue.
	var baselines sync.Map
	var curves []Curve
	for _, c := range experiments.Fig5Curves(topo.NumCores()) {
		curves = append(curves, Curve{
			Name: c.Name, NumPoints: len(j.Bins), Sim: true, Policy: c.Spec.Policy,
			Needs: c.Spec.Variant.Needs(),
			Key: func(polKey string, pt int) string {
				return histSpecKey(c.Spec, polKey) + "|r" + strconv.Itoa(c.Ratio.Pollers) + ":" +
					strconv.Itoa(c.Ratio.Workers) + "|n" + strconv.Itoa(j.MatN) + "|bins" + strconv.Itoa(j.Bins[pt])
			},
			Run: func(pol experiments.Policy, pt int) Point {
				spec := c.Spec
				spec.Policy = pol
				once, _ := baselines.LoadOrStore([2]int{c.Ratio.Workers, pt}, sync.OnceValue(func() float64 {
					return experiments.RunInterferenceBaseline(topo, c.Ratio, j.Bins[pt], j.MatN, warmup, measure)
				}))
				base := once.(func() float64)()
				rel, loaded := experiments.RunInterferencePoint(spec, topo, c.Ratio, j.Bins[pt], j.MatN, warmup, measure, base)
				return Point{X: j.Bins[pt], Rel: rel, BaselineOps: base, LoadedOps: loaded}
			},
		})
	}
	return curves, nil
}

func (interferenceScenario) Table(r *Result) *stats.Table {
	return SweptTable(r, fmt.Sprintf(
		"Fig. 5 — relative matmul throughput under atomics interference (%d cores)", r.Cores),
		"#bins", Column{Metric: MetricRel, Decimals: 3})
}

// queueScenario is fig6/fig6ms: concurrent-queue throughput and fairness
// as the number of participating cores grows.
type queueScenario struct {
	kind  Kind
	title string
	specs func() []experiments.QueueSpec
}

func (s queueScenario) Name() string        { return string(s.kind) }
func (s queueScenario) Reads() Field        { return FieldWindows | FieldGrid }
func (s queueScenario) keyspace() string    { return "queue" } // fig6 and fig6ms share amoadd-lock
func (s queueScenario) Description() string { return s.title }

func (s queueScenario) Normalize(j Job, topo noc.Topology) (Job, error) {
	j.DefaultWindows(defaultFig6Warmup, defaultFig6Measure)
	return j, nil
}

func (s queueScenario) Curves(topo noc.Topology, j Job) ([]Curve, error) {
	warmup, measure := j.Windows()
	counts := experiments.Fig6Counts(topo)
	var curves []Curve
	for _, spec := range s.specs() {
		curves = append(curves, Curve{
			Name: spec.Name, NumPoints: len(counts), Sim: true, Policy: spec.Policy,
			Needs: spec.Variant.Needs(),
			Key: func(polKey string, pt int) string {
				return queueSpecKey(spec, polKey) + "|active" + strconv.Itoa(counts[pt])
			},
			Run: func(pol experiments.Policy, pt int) Point {
				spec := spec
				spec.Policy = pol
				p := experiments.RunQueuePoint(spec, topo, counts[pt], warmup, measure)
				return Point{X: counts[pt], Throughput: p.Throughput,
					MinPerCore: p.MinPerCore, MaxPerCore: p.MaxPerCore}
			},
		})
	}
	return curves, nil
}

func (s queueScenario) Table(r *Result) *stats.Table {
	return SweptTable(r, fmt.Sprintf(
		"Fig. 6 — queue accesses/cycle vs #cores (%d-core system; min/max = per-core band)", r.Cores),
		"#cores", BandColumns...)
}

// areaScenario is table1: the tile area model. Pure arithmetic — its
// points are uncacheable (cheaper to recompute than to hash) and don't
// count as simulations.
type areaScenario struct{}

func (areaScenario) Name() string { return string(TableI) }
func (areaScenario) Reads() Field { return FieldCores }
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
		Run: func(_ experiments.Policy, pt int) Point {
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

func (energyScenario) Name() string { return string(TableII) }
func (energyScenario) Reads() Field { return FieldWindows }
func (energyScenario) Description() string {
	return "Table II — energy per atomic access at highest contention"
}

func (energyScenario) Normalize(j Job, topo noc.Topology) (Job, error) {
	j.DefaultWindows(defaultTableIIWarmup, defaultTableIIMeasure)
	return j, nil
}

func (energyScenario) Curves(topo noc.Topology, j Job) ([]Curve, error) {
	warmup, measure := j.Windows()
	specs := experiments.TableIISpecs()
	// The rows are the paper's fixed built-in policies, which share the
	// one calibrated model; the energy.PolicyWeights hook applies where
	// a custom policy is actually configured (the run kind). Each row
	// keys, and runs, under its own policy, which serves what it needs.
	params := energy.Default()
	return []Curve{{
		Name: string(TableII), NumPoints: len(specs), Sim: true,
		// Run reads the row's name (its label and paper reference), so
		// the name keys too.
		Key: func(_ string, pt int) string {
			spec := specs[pt]
			return spec.Name + "|" + histSpecKey(spec, spec.Policy.KeyFragment(topo)) + "|energy"
		},
		Run: func(_ experiments.Policy, pt int) Point {
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

// SingleRun is the single-run kind: one kernel under each grid policy
// (Colibri by default), reported as its activity breakdown and energy
// per operation. It is not a paper kind, so Kinds and -all leave it out.
const SingleRun Kind = "run"

// The run kind's -params keys.
const (
	runParamKernel  = "kernel"  // histogram (default), queue, msqueue or matmul
	runParamVariant = "variant" // the histogram's software variant (default lrscwait)
)

// runScenario is run: the breakdown behind the paper's argument — where
// LRwait sleeps, LR/SC retries (backoff cycles, SC failures) and polls —
// for one kernel. Its swept axis is the histogram's bin count.
type runScenario struct{}

func (runScenario) Name() string { return string(SingleRun) }
func (runScenario) Reads() Field { return FieldBins | FieldWindows | FieldGrid | FieldParams }
func (runScenario) Description() string {
	return "one kernel run — activity breakdown (sleep, backoff, SC failures) and energy per op"
}

// runPolicy is the run kind's policy baseline; the grid overlays it.
func runPolicy() experiments.Policy { return experiments.PaperPolicy(platform.PolicyColibri) }

// Normalize fills the kernel (and the histogram's variant and bins) into
// the job. The queue, msqueue and matmul kernels take their code from
// the policy and sweep no bins, so a variant or bins for them is refused
// rather than ignored.
func (runScenario) Normalize(j Job, topo noc.Topology) (Job, error) {
	j.DefaultWindows(defaultRunWarmup, defaultRunMeasure)
	if err := j.CheckParams(runParamKernel, runParamVariant); err != nil {
		return j, err
	}
	kernel := cmp.Or(j.Params[runParamKernel], "histogram")
	params := map[string]string{runParamKernel: kernel}
	switch kernel {
	case "histogram":
		variant := cmp.Or(j.Params[runParamVariant], kernels.HistLRSCWait.String())
		if _, ok := kernels.ParseHistVariant(variant); !ok {
			return j, fmt.Errorf("sweep: run: unknown histogram variant %q", variant)
		}
		params[runParamVariant] = variant
		if len(j.Bins) == 0 {
			j.Bins = []int{16}
		}
	case "queue", "msqueue", "matmul":
		if _, ok := j.Params[runParamVariant]; ok {
			return j, fmt.Errorf("sweep: run: kernel %s takes no variant (the policy picks its code)", kernel)
		}
		if len(j.Bins) > 0 {
			return j, fmt.Errorf("sweep: run: kernel %s takes no bins", kernel)
		}
	default:
		return j, fmt.Errorf("sweep: run: unknown kernel %q (have histogram, queue, msqueue, matmul)", kernel)
	}
	j.Params = params
	return j, nil
}

func (runScenario) Curves(topo noc.Topology, j Job) ([]Curve, error) {
	warmup, measure := j.Windows()
	kernel, variant := j.Params[runParamKernel], j.Params[runParamVariant]
	name, bins := kernel, j.Bins
	var needs platform.Classes
	switch kernel {
	case "histogram":
		name += "/" + variant
		v, _ := kernels.ParseHistVariant(variant)
		needs = v.Needs()
	case "queue", "msqueue":
		needs = platform.ClassLRSC | platform.ClassLRSCWait // runKernel picks the code
		bins = []int{0}
	default:
		bins = []int{0} // one point: the whole machine runs the kernel
	}
	return []Curve{{
		Name: name, NumPoints: len(bins), Sim: true, Policy: runPolicy(), Needs: needs,
		Key: func(polKey string, pt int) string {
			return polKey + "|bins" + strconv.Itoa(bins[pt])
		},
		Run: func(pol experiments.Policy, pt int) Point {
			label, act := runKernel(kernel, variant, pol, topo, bins[pt], warmup, measure)
			e := policyEnergy(pol, topo)
			p := Point{X: bins[pt], Label: label, Throughput: act.Throughput(),
				PJPerOp: e.PerOpPJ(act), PowerMW: e.PowerMW(act, experiments.TableIIFreqMHz)}
			lo, hi := act.MinMaxOps()
			for name, v := range map[string]uint64{
				"ops_min": lo, "ops_max": hi, "instrs": act.Instrs,
				"busy_cycles": act.BusyCycles, "memwait_cycles": act.MemWaitCycles,
				"sleep_cycles": act.SleepCycles, "backoff_cycles": act.PauseCycles,
				"flits": act.Flits, "bank_accesses": act.BankAccesses,
				"sc_success": act.SCSuccess, "sc_fail": act.SCFail, "wait_refusals": act.WaitRefusals,
				"succ_updates": act.SuccUpdates, "wakeups": act.WakeUps,
			} {
				p.SetMetric(name, float64(v))
			}
			return p
		},
	}}, nil
}

// runKernel runs kernel under pol and returns the code that ran, as
// "kernel/variant", with its activity. The queue kernels run LRwait if
// the policy serves it and LR/SC otherwise.
func runKernel(kernel, variant string, pol experiments.Policy, topo noc.Topology,
	bins, warmup, measure int) (string, platform.Activity) {
	switch kernel {
	case "histogram":
		v, _ := kernels.ParseHistVariant(variant)
		spec := experiments.HistSpec{Variant: v, Policy: pol}
		return kernel + "/" + variant, experiments.RunHistogramPoint(spec, topo, bins, warmup, measure).Activity
	case "queue", "msqueue":
		spec := experiments.QueueSpec{Variant: kernels.QueueLRSC, MS: kernel == "msqueue", Policy: pol}
		// expand has probed pol already (the curve's Needs), so it resolves.
		if served, _ := platform.Serves(pol.Kind, pol.PolicyParams, topo); served&platform.ClassLRSCWait != 0 {
			spec.Variant = kernels.QueueLRSCWait
		}
		p := experiments.RunQueuePoint(spec, topo, topo.NumCores(), warmup, measure)
		return kernel + "/" + spec.Variant.String(), p.Activity
	default:
		return kernel, experiments.RunMatmul(pol, topo, warmup, measure)
	}
}

// policyEnergy is the energy model of pol: the policy's own calibrated
// constants when it supplies them (energy.PolicyWeights), the shared
// model otherwise.
func policyEnergy(pol experiments.Policy, topo noc.Topology) energy.Params {
	if resolved, err := platform.ResolvePolicy(pol.Kind, pol.PolicyParams, topo); err == nil {
		if pw, ok := resolved.(energy.PolicyWeights); ok {
			return pw.EnergyWeights()
		}
	}
	return energy.Default()
}

// runRows lays out the activity table: a label and the Extra counters
// its cell shows, joined by " / ".
var runRows = []struct {
	label   string
	metrics []string
}{
	{"per-core ops min/max", []string{"ops_min", "ops_max"}},
	{"instructions", []string{"instrs"}},
	{"busy cycles", []string{"busy_cycles"}},
	{"mem-wait cycles", []string{"memwait_cycles"}},
	{"sleep cycles (LRwait/Mwait)", []string{"sleep_cycles"}},
	{"backoff cycles", []string{"backoff_cycles"}},
	{"fabric flit-hops", []string{"flits"}},
	{"bank accesses", []string{"bank_accesses"}},
	{"SC success / fail", []string{"sc_success", "sc_fail"}},
	{"wait refusals", []string{"wait_refusals"}},
	{"SuccessorUpdates / WakeUps", []string{"succ_updates", "wakeups"}},
}

// Table prints one metric per row and one column per (series, point).
// A single run gets a "value" column and a title naming its code and
// policy; otherwise each column is headed by its code, bins and grid
// coordinate.
func (runScenario) Table(r *Result) *stats.Table {
	type column struct {
		name string
		p    Point
	}
	var cols []column
	for _, s := range r.Series {
		g := GridCoord{}
		if s.Grid != nil {
			g = *s.Grid
		}
		for _, p := range s.Points {
			name := p.Label
			if len(s.Points) > 1 {
				name += " bins=" + strconv.Itoa(p.X)
			}
			cols = append(cols, column{gridName(name, g), p})
		}
	}
	title := fmt.Sprintf("run on %s (%d cores, policy %s unless the column says otherwise)",
		r.Job.Topo, r.Cores, runPolicy().Kind)
	header := []string{"metric"}
	if len(cols) == 1 {
		pol := runPolicy()
		if g := r.Series[0].Grid; g != nil {
			pol = g.merge(pol)
		}
		title = fmt.Sprintf("%s on %s (%d cores, policy %s)", cols[0].p.Label, r.Job.Topo, r.Cores, pol.Kind)
		header = append(header, "value")
	} else {
		for _, c := range cols {
			header = append(header, c.name)
		}
	}
	t := stats.NewTable(title, header...)
	row := func(label string, cell func(Point) string) {
		cells := []string{label}
		for _, c := range cols {
			cells = append(cells, cell(c.p))
		}
		t.Add(cells...)
	}
	row("throughput (ops/cycle)", func(p Point) string { return stats.F(p.Throughput, 4) })
	for _, rr := range runRows {
		row(rr.label, func(p Point) string {
			parts := make([]string, len(rr.metrics))
			for i, m := range rr.metrics {
				parts[i] = strconv.FormatUint(uint64(p.Extra[m]), 10)
			}
			return strings.Join(parts, " / ")
		})
	}
	row("energy (pJ/op)", func(p Point) string { return stats.F(p.PJPerOp, 1) })
	row(fmt.Sprintf("power (mW @%dMHz)", experiments.TableIIFreqMHz),
		func(p Point) string { return stats.F(p.PowerMW, 1) })
	return t
}
