// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section V), plus ablations of three modelling choices that
// shape the results: the LR/SC retry backoff cap, the fabric FIFO depth
// and the Colibri head/tail pair count. Each benchmark runs the
// corresponding experiment on the quarter-scale Medium topology (64
// cores) so the full suite completes in minutes; cmd/sweep runs the same
// code at the paper's 256-core scale.
//
// The interesting output is the reported custom metric (simulated
// operations per simulated cycle, worker-relative throughput, pJ/op, or
// kGE) — wall-clock ns/op measures only host simulation speed.
package lrscwait_test

import (
	"fmt"
	"testing"

	"repro/internal/area"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/noc"
	"repro/internal/platform"
	"repro/internal/sweep"
)

const (
	benchWarmup  = 1500
	benchMeasure = 5000
)

func benchTopo() noc.Topology { return noc.Medium() }

// BenchmarkFig3 regenerates Fig. 3: histogram throughput of the LRSCwait
// implementations and standard atomics at varying contention.
func BenchmarkFig3(b *testing.B) {
	topo := benchTopo()
	for _, spec := range experiments.Fig3Specs(topo.NumCores()) {
		for _, bins := range []int{1, 16, 256} {
			name := fmt.Sprintf("%s/bins=%d", spec.Name, bins)
			b.Run(name, func(b *testing.B) {
				var tp float64
				for i := 0; i < b.N; i++ {
					p := experiments.RunHistogramPoint(spec, topo, bins, benchWarmup, benchMeasure)
					tp = p.Throughput
				}
				b.ReportMetric(tp, "simops/cycle")
			})
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4: the lock implementations against raw
// Colibri and LRSC.
func BenchmarkFig4(b *testing.B) {
	topo := benchTopo()
	for _, spec := range experiments.Fig4Specs() {
		for _, bins := range []int{1, 16, 256} {
			name := fmt.Sprintf("%s/bins=%d", spec.Name, bins)
			b.Run(name, func(b *testing.B) {
				var tp float64
				for i := 0; i < b.N; i++ {
					p := experiments.RunHistogramPoint(spec, topo, bins, benchWarmup, benchMeasure)
					tp = p.Throughput
				}
				b.ReportMetric(tp, "simops/cycle")
			})
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5: relative matmul throughput under
// atomics interference (the reported metric is worker throughput relative
// to an interference-free run; 1.0 = unaffected).
func BenchmarkFig5(b *testing.B) {
	topo := benchTopo()
	n := topo.NumCores()
	ratios := experiments.PaperRatios(n)
	// Backoff 0 disables the retry backoff: at this reduced scale the
	// poller population cannot saturate the hot tile through a 128-cycle
	// backoff (the fig5 sweep at 256 cores keeps the paper's 128).
	specs := []experiments.HistSpec{
		{Name: "colibri", Variant: kernels.HistLRSCWait,
			Policy: experiments.Policy{Kind: platform.PolicyColibri, Backoff: 0}},
		{Name: "lrsc", Variant: kernels.HistLRSC,
			Policy: experiments.Policy{Kind: platform.PolicyLRSCSingle, Backoff: 0}},
	}
	for _, spec := range specs {
		for _, ratio := range []experiments.InterferenceRatio{ratios[0], ratios[len(ratios)-1]} {
			name := fmt.Sprintf("%s/%d:%d", spec.Name, ratio.Pollers, ratio.Workers)
			b.Run(name, func(b *testing.B) {
				var rel float64
				for i := 0; i < b.N; i++ {
					base := experiments.RunInterferenceBaseline(topo, ratio, 1, 64,
						2*benchWarmup, 3*benchMeasure)
					rel, _ = experiments.RunInterferencePoint(spec, topo, ratio, 1, 64,
						2*benchWarmup, 3*benchMeasure, base)
				}
				b.ReportMetric(rel, "rel-throughput")
			})
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6: queue accesses/cycle vs core count.
func BenchmarkFig6(b *testing.B) {
	topo := benchTopo()
	for _, spec := range experiments.Fig6Specs() {
		for _, cores := range []int{1, 8, topo.NumCores()} {
			name := fmt.Sprintf("%s/cores=%d", spec.Name, cores)
			b.Run(name, func(b *testing.B) {
				var tp float64
				for i := 0; i < b.N; i++ {
					p := experiments.RunQueuePoint(spec, topo, cores, benchWarmup, 2*benchMeasure)
					tp = p.Throughput
				}
				b.ReportMetric(tp, "simops/cycle")
			})
		}
	}
}

// BenchmarkTableI regenerates Table I (the area model; the metric is the
// modelled tile area in kGE).
func BenchmarkTableI(b *testing.B) {
	m := area.Default()
	for _, row := range []struct {
		name string
		eval func() float64
	}{
		{"tile", m.Tile},
		{"lrscwait1", func() float64 { return m.TileWithWaitQueue(1) }},
		{"lrscwait8", func() float64 { return m.TileWithWaitQueue(8) }},
		{"lrscwait-ideal", func() float64 { return m.TileWithWaitQueue(256) }},
		{"colibri-4addr", func() float64 { return m.TileWithColibri(4) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			var kge float64
			for i := 0; i < b.N; i++ {
				kge = row.eval()
			}
			b.ReportMetric(kge, "kGE")
		})
	}
}

// BenchmarkTableII regenerates Table II (energy per atomic access at the
// highest contention; the metric is pJ/op).
func BenchmarkTableII(b *testing.B) {
	topo := benchTopo()
	params := energy.Default()
	for _, spec := range experiments.TableIISpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			var pj float64
			for i := 0; i < b.N; i++ {
				p := experiments.RunHistogramPoint(spec, topo, 1, benchWarmup, 2*benchMeasure)
				pj = params.PerOpPJ(p.Activity)
			}
			b.ReportMetric(pj, "pJ/op")
		})
	}
}

// BenchmarkSweepEngine regenerates the Fig. 3 sweep through the
// internal/sweep orchestration engine at one worker versus GOMAXPROCS
// workers — the wall-clock ns/op ratio is the engine's parallel speedup
// (simulation points are independent Systems, so it should approach the
// host core count for large sweeps).
func BenchmarkSweepEngine(b *testing.B) {
	job := sweep.Job{Kind: sweep.Fig3, Topo: "medium",
		Bins: []int{1, 16, 256}, Warmup: benchWarmup, Measure: benchMeasure}
	for _, w := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(w.name, func(b *testing.B) {
			r := sweep.Runner{Workers: w.workers}
			var st sweep.RunStats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = r.Run(job)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Units), "points")
		})
	}
}

// BenchmarkAblationBackoff sweeps the maximum retry backoff of the LRSC
// histogram at full contention. The cap (128 cycles by default) sets how
// far LRSC throughput collapses: failed SCs retry sooner or later, and
// each retry is another round trip to the contended bank.
func BenchmarkAblationBackoff(b *testing.B) {
	topo := benchTopo()
	for _, cap := range []int32{0, 32, 128, 512} {
		name := fmt.Sprintf("cap=%d", cap)
		spec := experiments.HistSpec{Name: "lrsc", Variant: kernels.HistLRSC,
			Policy: experiments.Policy{Kind: platform.PolicyLRSCSingle, Backoff: cap}}
		b.Run(name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				p := experiments.RunHistogramPoint(spec, topo, 1, benchWarmup, benchMeasure)
				tp = p.Throughput
			}
			b.ReportMetric(tp, "simops/cycle")
		})
	}
}

// BenchmarkAblationFIFODepth varies the fabric FIFO depth: shallow FIFOs
// with backpressure are what turn a hot bank into tree saturation (the
// Fig. 5 mechanism); deep FIFOs soak up the interference.
func BenchmarkAblationFIFODepth(b *testing.B) {
	topo := benchTopo()
	n := topo.NumCores()
	ratio := experiments.InterferenceRatio{Pollers: n - 2, Workers: 2}
	for _, depth := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var rel float64
			for i := 0; i < b.N; i++ {
				rel = interferenceRelWithDepth(topo, ratio, depth)
			}
			b.ReportMetric(rel, "rel-throughput")
		})
	}
}

// interferenceRelWithDepth builds the Fig. 5 single point with a custom
// fabric depth (no-backoff LRSC pollers, 1 bin).
func interferenceRelWithDepth(topo noc.Topology, ratio experiments.InterferenceRatio, depth int) float64 {
	build := func(loaded bool) (*platform.System, []int) {
		cfg := platform.Config{Topo: topo, Policy: platform.PolicyLRSCSingle, FIFODepth: depth}
		l := platform.NewLayout(0)
		histLay := kernels.NewHistLayout(l, 1, topo.NumCores())
		matLay := kernels.NewMatmulLayout(l, 16)
		poller := kernels.HistogramProgram(kernels.HistLRSC, histLay, 0, 0)
		idle := func() *isa.Program { bb := isa.NewBuilder(); bb.Halt(); return bb.MustBuild() }()
		workerStart := topo.NumCores() - ratio.Workers
		sys := platform.New(cfg, func(core int) *isa.Program {
			if core >= workerStart {
				return kernels.MatmulProgram(matLay, core-workerStart, ratio.Workers, true)
			}
			if loaded && core < ratio.Pollers {
				return poller
			}
			return idle
		})
		kernels.InitMatmul(sys, matLay)
		var workers []int
		for c := workerStart; c < topo.NumCores(); c++ {
			workers = append(workers, c)
		}
		return sys, workers
	}
	tp := func(loaded bool) float64 {
		sys, workers := build(loaded)
		act := sys.Measure(2*benchWarmup, 6*benchMeasure)
		var ops uint64
		for _, w := range workers {
			ops += act.OpsPerCore[w]
		}
		return float64(ops) / float64(act.Cycle)
	}
	base := tp(false)
	if base == 0 {
		return 0
	}
	return tp(true) / base
}

// BenchmarkAblationColibriQueues varies the number of head/tail register
// pairs per bank controller with two contended addresses living in the
// same bank: one pair forces the second address into the refusal/retry
// fallback, two or more pairs let both queues sleep.
func BenchmarkAblationColibriQueues(b *testing.B) {
	topo := benchTopo()
	for _, q := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("queues=%d", q), func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				tp = twoAddressThroughput(topo, q)
			}
			b.ReportMetric(tp, "simops/cycle")
		})
	}
}

// twoAddressThroughput runs half the cores against word 0 and half
// against word numBanks (same bank, different address) with LRwait/SCwait.
func twoAddressThroughput(topo noc.Topology, queues int) float64 {
	cfg := platform.Config{Topo: topo, Policy: platform.PolicyColibri,
		PolicyParams: platform.PolicyParams{ColibriQueues: queues}}
	nBanks := topo.NumBanks()
	prog := func(addr uint32) *isa.Program {
		bb := isa.NewBuilder()
		bb.Li(isa.A0, int32(addr))
		bb.Li(isa.S4, 128)
		bb.Li(isa.S7, 33)
		bb.Label("loop")
		bb.LrWait(isa.T1, isa.A0)
		bb.Addi(isa.T1, isa.T1, 1)
		bb.ScWait(isa.T2, isa.T1, isa.A0)
		bb.Beqz(isa.T2, "ok")
		bb.Pause(isa.S7)
		bb.J("loop")
		bb.Label("ok")
		bb.Mark()
		bb.J("loop")
		return bb.MustBuild()
	}
	progA, progB := prog(0), prog(uint32(4*nBanks)) // both map to bank 0
	sys := platform.New(cfg, func(core int) *isa.Program {
		if core%2 == 0 {
			return progA
		}
		return progB
	})
	act := sys.Measure(benchWarmup, benchMeasure)
	return act.Throughput()
}
