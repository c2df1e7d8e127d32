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

// interferenceSystem builds a system where the first ratio.Pollers cores
// run the histogram spec (or halt, when loaded is false) and the last
// ratio.Workers cores run the endless matmul, under spec.Policy.
func interferenceSystem(spec HistSpec, topo noc.Topology, ratio InterferenceRatio,
	bins, matN int, loaded bool) *platform.System {
	nCores := topo.NumCores()
	if ratio.Pollers+ratio.Workers > nCores {
		panic("experiments: ratio exceeds core count")
	}
	_, histLay, matLay := interferenceLayout(nCores, ratio.Workers, bins, matN)

	pollerProg := kernels.HistogramProgram(spec.Variant, histLay, spec.Policy.Backoff, 0)
	idle := isa.HaltProgram()
	workerStart := nCores - ratio.Workers
	progFor := func(core int) *isa.Program {
		if core >= workerStart {
			return kernels.MatmulProgram(matLay, core-workerStart, ratio.Workers, true)
		}
		if loaded && core < ratio.Pollers {
			return pollerProg
		}
		return idle
	}
	sys := platform.New(spec.Policy.Config(topo), progFor)
	kernels.InitMatmul(sys, matLay)
	return sys
}

// interferenceLayout places Fig. 5's data from word 0: the histogram's
// bins, then the matrices, whose matN rows are raised to the worker
// count so every worker owns at least one row.
func interferenceLayout(nCores, workers, bins, matN int) (*platform.Layout, kernels.HistLayout, kernels.MatmulLayout) {
	l := platform.NewLayout(0)
	histLay := kernels.NewHistLayout(l, bins, nCores)
	return l, histLay, kernels.NewMatmulLayout(l, max(matN, workers))
}

// InterferenceFits reports whether Fig. 5's layout of bins >= 1 bins and
// a matrix of matN >= 1 rows fits topo's memory at every paper ratio.
func InterferenceFits(topo noc.Topology, bins, matN int) bool {
	words := platform.MemoryWords(topo)
	// A size beyond the memory fails before its word counts can overflow.
	fits := bins <= words && matN <= words/matN
	for _, r := range PaperRatios(topo.NumCores()) {
		if fits {
			l, _, _ := interferenceLayout(topo.NumCores(), r.Workers, bins, matN)
			fits = l.UsedWords() <= words
		}
	}
	return fits
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

// workerThroughput measures sys and returns the marks/cycle of its last
// workers cores.
func workerThroughput(sys *platform.System, workers, warmup, measure int) float64 {
	act := sys.Measure(warmup, measure)
	sys.PublishObs(obs.Default())
	var ops uint64
	for _, n := range act.OpsPerCore[len(act.OpsPerCore)-workers:] {
		ops += n
	}
	if act.Cycle == 0 {
		return 0
	}
	return float64(ops) / float64(act.Cycle)
}

// RunInterferenceBaseline measures Fig. 5's interference-free worker
// throughput: ratio.Workers matmul workers alone on plain memory, the
// other cores halted, in the layout of bins bins. Every curve divides by
// it, so a policy that slows plain loads gets the plain baseline too;
// each built-in policy runs this system exactly as plain does
// (TestFig5BaselineIsPolicyInvariant).
func RunInterferenceBaseline(topo noc.Topology, ratio InterferenceRatio, bins, matN, warmup, measure int) float64 {
	plain := HistSpec{Policy: PaperPolicy(platform.PolicyPlain)}
	return workerThroughput(interferenceSystem(plain, topo, ratio, bins, matN, false), ratio.Workers, warmup, measure)
}

// RunInterferencePoint measures one Fig. 5 point under spec.Policy. It
// returns the workers' marks/cycle with the pollers running (loaded) and
// loaded over baseline, the matching RunInterferenceBaseline (rel; 0 when
// baseline is 0).
func RunInterferencePoint(spec HistSpec, topo noc.Topology, ratio InterferenceRatio,
	bins, matN, warmup, measure int, baseline float64) (rel, loaded float64) {
	loaded = workerThroughput(interferenceSystem(spec, topo, ratio, bins, matN, true), ratio.Workers, warmup, measure)
	if baseline > 0 {
		rel = loaded / baseline
	}
	return rel, loaded
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
