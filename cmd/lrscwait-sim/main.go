// Command lrscwait-sim is the generic simulation driver: pick a topology,
// a reservation policy and a kernel, run for a fixed window, and inspect
// throughput, activity and (optionally) the kernel's disassembly.
//
// Policy selection is registry-driven: -policy accepts any name returned
// by -list-policies — the five built-ins plus whatever a linked library
// registered through platform.RegisterPolicy — and -pparam passes
// additional policy-specific parameters. Policies supplying their own
// energy constants (the energy.PolicyWeights hook) are reported with
// those instead of the shared calibrated model.
//
// Usage:
//
//	lrscwait-sim [-scale terapool|mempool|medium|small]
//	             [-policy NAME] [-list-policies]
//	             [-kernel histogram|queue|msqueue|matmul]
//	             [-variant amoadd|lrsc|lrscwait|lrsc-lock|lrscwait-lock|amoadd-lock|mwait-mcs-lock]
//	             [-bins N] [-queues N] [-qcap N] [-pparam 'k=v ...'] [-backoff N]
//	             [-warmup N] [-measure N] [-disasm]
//	             [-obs] [-manifest FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// Observability: -obs dumps the run's kernel metrics (scheduler
// ticked/skipped counts, fast-forward savings, per-policy adapter
// counters) to stderr; -manifest writes them with the host environment
// as JSON; -cpuprofile/-memprofile write pprof profiles.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

var histVariants = map[string]kernels.HistVariant{
	"amoadd":         kernels.HistAmoAdd,
	"lrsc":           kernels.HistLRSC,
	"lrscwait":       kernels.HistLRSCWait,
	"lrsc-lock":      kernels.HistLockLRSC,
	"lrscwait-lock":  kernels.HistLockLRSCWait,
	"amoadd-lock":    kernels.HistLockTicket,
	"mwait-mcs-lock": kernels.HistLockMCSMwait,
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lrscwait-sim: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	scale := flag.String("scale", "medium", "topology: terapool (1024 cores), mempool (256), medium (64), small (16)")
	policyName := flag.String("policy", "colibri", "reservation policy by registered name (see -list-policies)")
	listPolicies := flag.Bool("list-policies", false, "print the registered policy names and exit")
	kernel := flag.String("kernel", "histogram", "workload: histogram, queue, msqueue, matmul")
	variant := flag.String("variant", "lrscwait", "histogram variant (see -help)")
	bins := flag.Int("bins", 16, "histogram bins")
	queues := flag.Int("queues", 4, "Colibri head/tail pairs per bank controller")
	qcap := flag.Int("qcap", 0, "WaitQueue capacity (0 = ideal)")
	pparam := flag.String("pparam", "", "extra policy parameters, e.g. 'key=value ...' (policy-defined keys)")
	backoff := flag.Int("backoff", 128, "max retry/spin backoff in cycles (0 = none)")
	warmup := flag.Int("warmup", 2000, "warm-up cycles")
	measure := flag.Int("measure", 10000, "measured cycles")
	disasm := flag.Bool("disasm", false, "print the kernel disassembly of core 0 and exit")
	showTrace := flag.Bool("trace", false, "render activity sparklines over the measured window")
	obsDump := flag.Bool("obs", false, "dump the run's kernel metrics to stderr")
	manifestPath := flag.String("manifest", "", "write a JSON run manifest (environment + kernel metrics) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	flag.Parse()

	if *listPolicies {
		for _, name := range platform.PolicyNames() {
			fmt.Println(name)
		}
		return
	}

	switch {
	case *bins < 1:
		fail("bad -bins %d (need at least 1)", *bins)
	case *backoff < 0:
		fail("bad -backoff %d (cycles, 0 = none)", *backoff)
	case *warmup < 0:
		fail("bad -warmup %d (cycles, need >= 0)", *warmup)
	case *measure < 0:
		fail("bad -measure %d (cycles, need >= 0)", *measure)
	}
	topo, ok := experiments.TopoByName(*scale)
	if !ok {
		fail("unknown scale %q", *scale)
	}
	policy := platform.PolicyKind(*policyName)
	if _, ok := platform.LookupPolicy(*policyName); !ok {
		fail("unknown policy %q (registered: %s)", *policyName,
			strings.Join(platform.PolicyNames(), ", "))
	}
	pol := experiments.Policy{Kind: policy, QueueCap: *qcap, ColibriQueues: *queues,
		Backoff: experiments.LiteralBackoff(*backoff)}
	cfg := pol.Config(topo)
	extra, err := sweep.ParseParams(*pparam)
	if err != nil {
		fail("%v", err)
	}
	params := platform.PolicyParams{}
	maps.Copy(params, cfg.PolicyParams)
	maps.Copy(params, extra)
	cfg.PolicyParams = params
	resolved, err := platform.ResolvePolicy(policy, params, topo)
	if err != nil {
		fail("%v", err)
	}
	backoffCycles := pol.ResolveBackoff()
	nCores := topo.NumCores()
	l := platform.NewLayout(0)

	var progFor platform.ProgramFor
	var initFn func(*platform.System)
	switch *kernel {
	case "histogram":
		v, ok := histVariants[*variant]
		if !ok {
			fail("unknown histogram variant %q", *variant)
		}
		lay := kernels.NewHistLayout(l, *bins, nCores)
		prog := kernels.HistogramProgram(v, lay, backoffCycles, 0)
		progFor = platform.SameProgram(prog)
	case "queue":
		lay := kernels.NewQueueLayout(l, nCores, 2*nCores)
		qv := kernels.QueueLRSCWait
		if policy == platform.PolicyLRSCSingle || policy == platform.PolicyLRSCTable {
			qv = kernels.QueueLRSC
		}
		progFor = kernels.QueueProgram(qv, lay, backoffCycles, 0)
		initFn = func(sys *platform.System) { kernels.InitQueue(sys, lay) }
	case "msqueue":
		lay := kernels.NewMSLayout(l, nCores, 4)
		wait := policy == platform.PolicyColibri || policy == platform.PolicyWaitQueue
		progFor = kernels.MSQueueProgram(wait, lay, backoffCycles, 0)
		initFn = func(sys *platform.System) { kernels.InitMSQueue(sys, lay) }
	case "matmul":
		lay := kernels.NewMatmulLayout(l, max(16, nCores/2))
		progFor = func(core int) *isa.Program {
			return kernels.MatmulProgram(lay, core, nCores, true)
		}
		initFn = func(sys *platform.System) { kernels.InitMatmul(sys, lay) }
	default:
		fail("unknown kernel %q", *kernel)
	}

	if *disasm {
		fmt.Print(isa.Disassemble(progFor(0)))
		return
	}

	sys := platform.New(cfg, progFor)
	if initFn != nil {
		initFn(sys)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("%v", err)
		}
	}
	obsBefore := obs.Default().Snapshot()
	var tr *trace.Series
	var act platform.Activity
	if *showTrace {
		sys.Run(*warmup)
		before := sys.Snapshot()
		tr = trace.Run(sys, *measure, max(*measure/72, 1))
		act = platform.Delta(before, sys.Snapshot())
	} else {
		act = sys.Measure(*warmup, *measure)
	}
	sys.PublishObs(obs.Default())
	metrics := obs.Diff(obsBefore, obs.Default().Snapshot())
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail("%v", err)
		}
		runtime.GC() // settle allocations so the heap profile reflects retention
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail("%v", err)
		}
		f.Close()
	}
	if *obsDump {
		fmt.Fprint(os.Stderr, metrics.String())
	}
	if *manifestPath != "" {
		if err := sweep.NewSimManifest(metrics).WriteFile(*manifestPath); err != nil {
			fail("%v", err)
		}
	}
	// Policies carrying their own calibrated constants (the
	// energy.PolicyWeights hook) are reported with those.
	eparams := energy.Default()
	if pw, ok := resolved.(energy.PolicyWeights); ok {
		eparams = pw.EnergyWeights()
	}

	t := stats.NewTable(fmt.Sprintf("%s/%s on %s (%d cores, policy %s)",
		*kernel, *variant, *scale, nCores, policy),
		"metric", "value")
	t.Add("throughput (ops/cycle)", stats.F(act.Throughput(), 4))
	lo, hi := act.MinMaxOps()
	t.Add("per-core ops min/max", fmt.Sprintf("%d / %d", lo, hi))
	t.Add("instructions", fmt.Sprint(act.Instrs))
	t.Add("busy cycles", fmt.Sprint(act.BusyCycles))
	t.Add("mem-wait cycles", fmt.Sprint(act.MemWaitCycles))
	t.Add("sleep cycles (LRwait/Mwait)", fmt.Sprint(act.SleepCycles))
	t.Add("backoff cycles", fmt.Sprint(act.PauseCycles))
	t.Add("fabric flit-hops", fmt.Sprint(act.Flits))
	t.Add("bank accesses", fmt.Sprint(act.BankAccesses))
	t.Add("SC success / fail", fmt.Sprintf("%d / %d", act.SCSuccess, act.SCFail))
	t.Add("wait refusals", fmt.Sprint(act.WaitRefusals))
	t.Add("SuccessorUpdates / WakeUps", fmt.Sprintf("%d / %d", act.SuccUpdates, act.WakeUps))
	t.Add("energy (pJ/op)", stats.F(eparams.PerOpPJ(act), 1))
	t.Add("power (mW @600MHz)", stats.F(eparams.PowerMW(act, 600), 1))
	fmt.Print(t.String())
	if tr != nil {
		fmt.Println()
		fmt.Print(tr.Sparklines(nCores))
	}
}
