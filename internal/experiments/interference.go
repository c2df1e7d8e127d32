package experiments

import (
	"strconv"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/platform"
)

// Fig. 5: matrix-multiplication workers sharing the machine with cores
// hammering histogram bins. The histogram bins occupy the first words of
// memory — consecutive banks of tile 0 — so retry/polling traffic funnels
// into one tile and, through head-of-line blocking in the bounded-FIFO
// fabric, saturates paths that the workers' matrix traffic also needs.
// Colibri's sleeping waiters inject (almost) nothing, leaving workers
// unaffected.

// InterferenceRatio is a poller:worker core split.
type InterferenceRatio struct {
	Pollers, Workers int
}

// PaperRatios returns the splits annotated in Fig. 5, scaled to nCores
// (for 256 cores: 128:128, 192:64, 248:8, 252:4).
func PaperRatios(nCores int) []InterferenceRatio {
	return []InterferenceRatio{
		{nCores / 2, nCores / 2},
		{nCores * 3 / 4, nCores / 4},
		{nCores - nCores/32, nCores / 32},
		{nCores - nCores/64, nCores / 64},
	}
}

// InterferencePoint is one Fig. 5 measurement.
type InterferencePoint struct {
	Bins int
	// Rel is worker throughput relative to an interference-free run.
	Rel float64
	// BaselineOps and LoadedOps are worker marks/cycle without and with
	// pollers.
	BaselineOps, LoadedOps float64
}

// interferenceSystem builds a system where the first ratio.Pollers cores
// run the histogram spec (or halt, when loaded is false) and the last
// ratio.Workers cores run the endless matmul, under spec.Policy.
func interferenceSystem(spec HistSpec, topo noc.Topology, ratio InterferenceRatio,
	bins, matN int, loaded bool) (*platform.System, []int) {
	nCores := topo.NumCores()
	if ratio.Pollers+ratio.Workers > nCores {
		panic("experiments: ratio exceeds core count")
	}
	l := platform.NewLayout(0)
	histLay := kernels.NewHistLayout(l, bins, nCores)
	matLay := kernels.NewMatmulLayout(l, matN)

	pollerProg := kernels.HistogramProgram(spec.Variant, histLay, spec.Policy.Backoff, 0)
	idle := isa.HaltProgram()
	workerStart := nCores - ratio.Workers
	var workers []int
	progFor := func(core int) *isa.Program {
		if core >= workerStart {
			return kernels.MatmulProgram(matLay, core-workerStart, ratio.Workers, true)
		}
		if loaded && core < ratio.Pollers {
			return pollerProg
		}
		return idle
	}
	for c := workerStart; c < nCores; c++ {
		workers = append(workers, c)
	}
	sys := platform.New(spec.Policy.Config(topo), progFor)
	kernels.InitMatmul(sys, matLay)
	return sys, workers
}

// RunMatmul measures the endless matmul alone on every core under pol:
// Fig. 5's interference-free workload at full occupancy, on a matrix of
// max(16, cores/2) rows.
func RunMatmul(pol Policy, topo noc.Topology, warmup, measure int) platform.Activity {
	nCores := topo.NumCores()
	lay := kernels.NewMatmulLayout(platform.NewLayout(0), max(16, nCores/2))
	sys := platform.New(pol.Config(topo), func(core int) *isa.Program {
		return kernels.MatmulProgram(lay, core, nCores, true)
	})
	kernels.InitMatmul(sys, lay)
	act := sys.Measure(warmup, measure)
	sys.PublishObs(obs.Default())
	return act
}

func workerThroughput(act platform.Activity, workers []int) float64 {
	var ops uint64
	for _, w := range workers {
		ops += act.OpsPerCore[w]
	}
	if act.Cycle == 0 {
		return 0
	}
	return float64(ops) / float64(act.Cycle)
}

// RunInterferencePoint measures worker slowdown for one (spec, ratio,
// bins) combination under spec.Policy. matN is the matrix dimension,
// raised to the worker count so every worker owns at least one row.
func RunInterferencePoint(spec HistSpec, topo noc.Topology, ratio InterferenceRatio,
	bins, matN, warmup, measure int) InterferencePoint {
	if matN < ratio.Workers {
		matN = ratio.Workers
	}
	base, workers := interferenceSystem(spec, topo, ratio, bins, matN, false)
	baseline := workerThroughput(base.Measure(warmup, measure), workers)
	base.PublishObs(obs.Default())

	loadedSys, workers := interferenceSystem(spec, topo, ratio, bins, matN, true)
	loadedTP := workerThroughput(loadedSys.Measure(warmup, measure), workers)
	loadedSys.PublishObs(obs.Default())

	rel := 0.0
	if baseline > 0 {
		rel = loadedTP / baseline
	}
	return InterferencePoint{Bins: bins, Rel: rel, BaselineOps: baseline, LoadedOps: loadedTP}
}

// Fig5Curve names one curve of Fig. 5: a histogram spec pinned to a
// poller:worker split.
type Fig5Curve struct {
	Name  string
	Spec  HistSpec
	Ratio InterferenceRatio
}

// Fig5Curves returns the figure's curve set for an nCores machine: the
// Colibri curve at the most extreme ratio plus LRSC at every ratio.
func Fig5Curves(nCores int) []Fig5Curve {
	ratios := PaperRatios(nCores)
	colibri := HistSpec{Name: "colibri", Variant: kernels.HistLRSCWait, Policy: PaperPolicy(platform.PolicyColibri)}
	lrsc := HistSpec{Name: "lrsc", Variant: kernels.HistLRSC, Policy: PaperPolicy(platform.PolicyLRSCSingle)}

	curves := []Fig5Curve{{ // Colibri at the harshest split
		Name: ratioName(colibri.Name, ratios[len(ratios)-1]),
		Spec: colibri, Ratio: ratios[len(ratios)-1],
	}}
	for _, r := range ratios {
		curves = append(curves, Fig5Curve{Name: ratioName(lrsc.Name, r), Spec: lrsc, Ratio: r})
	}
	return curves
}

func ratioName(base string, r InterferenceRatio) string {
	return base + " " + strconv.Itoa(r.Pollers) + ":" + strconv.Itoa(r.Workers)
}
