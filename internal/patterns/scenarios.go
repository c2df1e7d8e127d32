package patterns

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/locks"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// The pattern scenario kinds (sweep registry names).
const (
	KindBarrier  sweep.Kind = "barrier"
	KindRCU      sweep.Kind = "rcu"
	KindCombLock sweep.Kind = "comblock"
)

// Scenario-defined metric names (sweep.Point.Metric keys).
const (
	// MetricCyclesPerBarrier is the mean cost of one barrier episode:
	// cycles * nActive / total barrier crossings in the window.
	MetricCyclesPerBarrier = "cycles_per_barrier"
	// MetricWriterSyncCycles is the mean writer round latency: cycles
	// per completed publish + double flip-and-wait + reclaim.
	MetricWriterSyncCycles = "writer_sync_cycles"
)

// Default simulation windows for the pattern scenarios. Barrier episodes
// and writer grace periods span many more cycles than a histogram
// update, so the windows are wider than the figure defaults.
const (
	DefaultPatternWarmup  = 2000
	DefaultPatternMeasure = 10000
)

func init() {
	sweep.MustRegister(barrierScenario{})
	sweep.MustRegister(rcuScenario{})
	sweep.MustRegister(combLockScenario{})
}

// patternReads are the Job fields every pattern scenario reads.
const patternReads = sweep.FieldBins | sweep.FieldWindows | sweep.FieldGrid | sweep.FieldParams

// normalizeWaits fills what every pattern scenario shares into j: the
// default windows and active-core axis, and the canonical wait list. It
// refuses a Params key outside ParamWait and extra, and leaves Params
// allocated for the caller's canonical entries.
func normalizeWaits(j sweep.Job, topo noc.Topology, extra ...string) (sweep.Job, error) {
	j.DefaultWindows(DefaultPatternWarmup, DefaultPatternMeasure)
	if len(j.Bins) == 0 {
		j.Bins = defaultCounts(topo, 2)
	}
	if err := j.CheckParams(append([]string{ParamWait}, extra...)...); err != nil {
		return j, err
	}
	_, canonW, err := waitsOf(j)
	if err != nil {
		return j, err
	}
	if j.Params == nil {
		j.Params = map[string]string{}
	}
	j.Params[ParamWait] = canonW
	return j, nil
}

// basePolicy is the pattern curves' baseline policy; the engine
// overlays each grid coordinate on it.
func basePolicy() experiments.Policy {
	return experiments.PaperPolicy(platform.PolicyColibri)
}

// defaultCounts returns the default active-core axis: powers of two
// from min up to the topology's core count.
func defaultCounts(topo noc.Topology, min int) []int {
	var counts []int
	for n := min; n <= topo.NumCores(); n *= 2 {
		counts = append(counts, n)
	}
	return counts
}

// normalizeCounts validates the active-core axis shared by the pattern
// scenarios: each count within [min, cores], powers of two when pow2.
func normalizeCounts(j sweep.Job, topo noc.Topology, min int, pow2 bool) error {
	for _, n := range j.Bins {
		if n < min || n > topo.NumCores() {
			return fmt.Errorf("patterns: active-core count %d out of range [%d, %d]",
				n, min, topo.NumCores())
		}
		if pow2 && !isPow2(n) {
			return fmt.Errorf("patterns: active-core count %d must be a power of two "+
				"for tree/butterfly barriers", n)
		}
	}
	return nil
}

// waitsOf and variantsOf parse the wait-kind and barrier-variant
// lists of a job's Params.
func waitsOf(j sweep.Job) ([]locks.WaitKind, string, error) {
	return parseList(j.Params[ParamWait], "wait kind", locks.WaitKinds, locks.ParseWaitKind)
}

func variantsOf(j sweep.Job) ([]BarrierVariant, string, error) {
	return parseList(j.Params[ParamVariant], "barrier variant", BarrierVariants, ParseBarrierVariant)
}

// newSystem builds a system where the first nActive cores run prog and
// the rest halt immediately (the active-subset idiom of fig6).
func newSystem(cfg platform.Config, prog *isa.Program, nActive int) *platform.System {
	idle := isa.HaltProgram()
	return platform.New(cfg, func(core int) *isa.Program {
		if core < nActive {
			return prog
		}
		return idle
	})
}

// barrierScenario: cycles per barrier episode vs active-core count, one
// curve per (variant × wait kind).
type barrierScenario struct{}

func (barrierScenario) Name() string       { return string(KindBarrier) }
func (barrierScenario) Reads() sweep.Field { return patternReads }
func (barrierScenario) Description() string {
	return "barrier cost vs #cores — central/tree/butterfly × spin/backoff/mwait waiters"
}

func (barrierScenario) Normalize(j sweep.Job, topo noc.Topology) (sweep.Job, error) {
	j, err := normalizeWaits(j, topo, ParamVariant)
	if err != nil {
		return j, err
	}
	variants, canonV, err := variantsOf(j)
	if err != nil {
		return j, err
	}
	j.Params[ParamVariant] = canonV
	pow2 := false
	for _, v := range variants {
		if v != BarrierCentral {
			pow2 = true
		}
	}
	return j, normalizeCounts(j, topo, 1, pow2)
}

func (barrierScenario) Curves(topo noc.Topology, j sweep.Job) ([]sweep.Curve, error) {
	warmup, measure := j.Windows()
	waits, _, err := waitsOf(j)
	if err != nil {
		return nil, err
	}
	variants, _, err := variantsOf(j)
	if err != nil {
		return nil, err
	}
	var curves []sweep.Curve
	for _, v := range variants {
		for _, w := range waits {
			curves = append(curves, sweep.Curve{
				Name: v.String() + "-" + w.String(), NumPoints: len(j.Bins), Sim: true, Policy: basePolicy(),
				Key: func(polKey string, pt int) string {
					return fmt.Sprintf("%s|w=%s|active%d|%s", v, w, j.Bins[pt], polKey)
				},
				Run: func(pol experiments.Policy, pt int) sweep.Point {
					nActive := j.Bins[pt]
					l := platform.NewLayout(0)
					lay := NewBarrierLayout(l, nActive)
					prog := BarrierProgram(v, w, lay, pol.Backoff, 0, false)
					sys := newSystem(pol.Config(topo), prog, nActive)
					act := sys.Measure(warmup, measure)
					sys.PublishObs(obs.Default())
					p := sweep.Point{X: nActive}
					if act.TotalOps > 0 {
						p.SetMetric(MetricCyclesPerBarrier,
							float64(act.Cycle)*float64(nActive)/float64(act.TotalOps))
					}
					return p
				},
			})
		}
	}
	return curves, nil
}

func (barrierScenario) Table(r *sweep.Result) *stats.Table {
	return sweep.SweptTable(r, fmt.Sprintf(
		"Synchronization barriers — cycles/barrier vs #cores (%d-core system)", r.Cores),
		"#cores", sweep.Column{Metric: MetricCyclesPerBarrier, Decimals: 1})
}

// rcuScenario: reader throughput and writer grace-period latency vs
// active-core count (core 0 writes, the rest read), one curve per
// writer wait kind.
type rcuScenario struct{}

func (rcuScenario) Name() string       { return string(KindRCU) }
func (rcuScenario) Reads() sweep.Field { return patternReads }
func (rcuScenario) Description() string {
	return "RCU flip-and-wait — reader ops/cycle and writer grace-period cycles vs #cores"
}

func (rcuScenario) Normalize(j sweep.Job, topo noc.Topology) (sweep.Job, error) {
	j, err := normalizeWaits(j, topo)
	if err != nil {
		return j, err
	}
	return j, normalizeCounts(j, topo, 2, false)
}

func (rcuScenario) Curves(topo noc.Topology, j sweep.Job) ([]sweep.Curve, error) {
	warmup, measure := j.Windows()
	waits, _, err := waitsOf(j)
	if err != nil {
		return nil, err
	}
	var curves []sweep.Curve
	for _, w := range waits {
		curves = append(curves, sweep.Curve{
			Name: "writer-" + w.String(), NumPoints: len(j.Bins), Sim: true, Policy: basePolicy(),
			Key: func(polKey string, pt int) string {
				return fmt.Sprintf("w=%s|active%d|%s", w, j.Bins[pt], polKey)
			},
			Run: func(pol experiments.Policy, pt int) sweep.Point {
				nActive := j.Bins[pt]
				l := platform.NewLayout(0)
				lay := NewRCULayout(l)
				writer := RCUWriterProgram(w, lay, pol.Backoff, 0)
				reader := RCUReaderProgram(lay, false)
				idle := isa.HaltProgram()
				sys := platform.New(pol.Config(topo), func(core int) *isa.Program {
					switch {
					case core == 0:
						return writer
					case core < nActive:
						return reader
					}
					return idle
				})
				InitRCU(sys, lay)
				act := sys.Measure(warmup, measure)
				sys.PublishObs(obs.Default())
				p := sweep.Point{X: nActive}
				writerOps := act.OpsPerCore[0]
				if act.Cycle > 0 {
					p.Throughput = float64(act.TotalOps-writerOps) / float64(act.Cycle)
				}
				if writerOps > 0 {
					p.SetMetric(MetricWriterSyncCycles, float64(act.Cycle)/float64(writerOps))
				}
				return p
			},
		})
	}
	return curves, nil
}

func (rcuScenario) Table(r *sweep.Result) *stats.Table {
	return sweep.SweptTable(r, fmt.Sprintf(
		"RCU writer-sync — reader ops/cycle and writer grace-period cycles (%d-core system)", r.Cores),
		"#cores", sweep.Column{Suffix: "-rd", Metric: sweep.MetricThroughput, Decimals: 4},
		sweep.Column{Suffix: "-sync", Metric: MetricWriterSyncCycles, Decimals: 1})
}

// combLockScenario: combining-lock operations/cycle and per-core
// fairness band vs active-core count, one curve per wait kind.
type combLockScenario struct{}

func (combLockScenario) Name() string       { return string(KindCombLock) }
func (combLockScenario) Reads() sweep.Field { return patternReads }
func (combLockScenario) Description() string {
	return "combining lock (CC-Synch/HSynch) — ops/cycle and fairness band vs #cores"
}

func (combLockScenario) Normalize(j sweep.Job, topo noc.Topology) (sweep.Job, error) {
	j, err := normalizeWaits(j, topo, ParamMaxCombine)
	if err != nil {
		return j, err
	}
	mc, err := maxCombineOf(j)
	if err != nil {
		return j, err
	}
	j.Params[ParamMaxCombine] = strconv.Itoa(mc)
	return j, normalizeCounts(j, topo, 1, false)
}

// maxCombineOf parses ParamMaxCombine ("" selects DefaultMaxCombine).
func maxCombineOf(j sweep.Job) (int, error) {
	s := strings.TrimSpace(j.Params[ParamMaxCombine])
	if s == "" {
		return DefaultMaxCombine, nil
	}
	mc, err := strconv.Atoi(s)
	if err != nil || mc < 1 {
		return 0, fmt.Errorf("patterns: %s=%q must be a positive integer", ParamMaxCombine, s)
	}
	return mc, nil
}

func (combLockScenario) Curves(topo noc.Topology, j sweep.Job) ([]sweep.Curve, error) {
	warmup, measure := j.Windows()
	waits, _, err := waitsOf(j)
	if err != nil {
		return nil, err
	}
	maxCombine, err := maxCombineOf(j)
	if err != nil {
		return nil, err
	}
	var curves []sweep.Curve
	for _, w := range waits {
		curves = append(curves, sweep.Curve{
			Name: w.String(), NumPoints: len(j.Bins), Sim: true, Policy: basePolicy(),
			Key: func(polKey string, pt int) string {
				return fmt.Sprintf("w=%s|mc%d|active%d|%s", w, maxCombine, j.Bins[pt], polKey)
			},
			Run: func(pol experiments.Policy, pt int) sweep.Point {
				nActive := j.Bins[pt]
				l := platform.NewLayout(0)
				lay := NewCombLayout(l, nActive)
				prog := CombLockProgram(w, lay, maxCombine, pol.Backoff, 0)
				sys := newSystem(pol.Config(topo), prog, nActive)
				InitCombLock(sys, lay)
				act := sys.Measure(warmup, measure)
				sys.PublishObs(obs.Default())
				p := sweep.Point{X: nActive, Throughput: act.Throughput()}
				p.MinPerCore, p.MaxPerCore = act.Band(nActive)
				return p
			},
		})
	}
	return curves, nil
}

func (combLockScenario) Table(r *sweep.Result) *stats.Table {
	return sweep.SweptTable(r, fmt.Sprintf(
		"Combining lock — ops/cycle vs #cores (%d-core system; min/max = per-core band)", r.Cores),
		"#cores", sweep.BandColumns...)
}
