package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/kernels"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/platform"
)

// kernelWorkload is one 1024-core histogram run on the kernel's own
// Run loop, at Partitions=auto.
type kernelWorkload struct {
	policy  platform.PolicyKind
	variant kernels.HistVariant
	bins    int
	backoff int32
	// window is the cycles of one timed window; miniWindow replaces it
	// at smoke-test scale. slice is the windows one slice holds.
	window, miniWindow, slice int
}

// settleCycles run before timing: auto calibration (256 executed
// cycles) and any migration happen inside them. A run sets up
// kernelSetups times and times the last system built.
const (
	settleCycles = 500
	kernelSetups = 5
)

// digestWindows is how many windows the fixed simulated span holds:
// the Activity digest and every sim.* metric are taken at its end, so
// they do not depend on how many windows the host finished in time.
const digestWindows = 5

// kernelSystem is one built and settled system.
type kernelSystem struct {
	sys                   *platform.System
	lay                   kernels.HistLayout
	newD, settleD, setupD time.Duration
}

func (kw kernelWorkload) build(env *runEnv, topo noc.Topology, base uint32, parts int) kernelSystem {
	id := env.tr.begin("setup", 0, 0)
	defer env.tr.end(id)
	t := time.Now()
	lay := kernels.NewHistLayout(platform.NewLayout(base), kw.bins, topo.NumCores())
	prog := kernels.HistogramProgram(kw.variant, lay, kw.backoff, 0)
	cfg := platform.Config{Topo: topo, Policy: kw.policy, Partitions: parts}
	sp := env.tr.begin("platform.New", id, 0)
	sys := platform.New(cfg, platform.SameProgram(prog))
	env.tr.end(sp)
	newD := time.Since(t)
	sp = env.tr.begin("System.Run", id, 0)
	sys.Run(settleCycles)
	env.tr.end(sp)
	setupD := time.Since(t)
	return kernelSystem{sys: sys, lay: lay, newD: newD, settleD: setupD - newD, setupD: setupD}
}

// activityDigest hashes a snapshot's complete contents.
func activityDigest(a platform.Activity) string {
	b, err := json.Marshal(a)
	if err != nil {
		panic(err) // Activity holds only integers
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runtimeCounter reads one cumulative runtime counter without stopping
// the world.
func runtimeCounter(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (kw kernelWorkload) run(env *runEnv, r *result) error {
	topo, window := noc.TeraPool1024(), kw.window
	if env.mini {
		topo, window = noc.Small(), kw.miniWindow
	}
	base := uint32(env.rng().IntN(topo.NumBanks()))
	cores := uint64(topo.NumCores())

	var ks kernelSystem
	var setups, news, settles []float64
	for i := 0; i < env.setups(kernelSetups); i++ {
		// Each set-up starts from a collected heap, so the previous
		// system and its garbage neither inflate peak memory nor land a
		// collection inside the next timing. Set-up runs on one CPU until
		// auto migrates the system.
		ks = kernelSystem{}
		runtime.GC()
		slow := env.clock.slowness(1)
		ks = kw.build(env, topo, base, platform.PartitionsAuto)
		setups = append(setups, ks.setupD.Seconds()/slow)
		news = append(news, float64(ks.newD)/1e6)
		settles = append(settles, float64(ks.settleD)/1e6)
	}
	sys := ks.sys
	r.Partitions = sys.Partitions()
	r.set("setup_s", median(setups))

	reg := obs.NewRegistry()
	if env.tr != nil {
		sys.PublishObs(obs.NewRegistry()) // later publishes then hold only the timed step
	}
	allocSample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	gcSample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	gc0 := runtimeCounter(gcSample)
	start := sys.Snapshot()
	k0, fused0 := sys.Kernel, sys.FusedCycles()
	var windows []time.Duration
	var sliceWall, sliceCPU time.Duration
	var sliceLat, publishes []float64
	var allocs uint64
	var fixed platform.Activity
	var step stepStats
	digest := ""
	slow := 1.0
	t0 := time.Now()
	slice := env.slice(kw.slice)
	for i := 0; i < max(slice*minSlices, digestWindows) || i%slice != 0 || time.Since(t0) < env.budget(); i++ {
		if i%slice == 0 {
			slow = env.clock.slowness(r.Partitions)
		}
		a0 := runtimeCounter(allocSample)
		sp := env.tr.begin("System.Run", 0, i)
		cpu0, t := cpuTime(), time.Now()
		sys.Run(window)
		d, cpu := time.Since(t), cpuTime()-cpu0
		env.tr.end(sp)
		allocs += runtimeCounter(allocSample) - a0
		windows = append(windows, d)
		sliceLat = append(sliceLat, float64(d)/1e6)
		sliceWall += d
		sliceCPU += cpu
		if (i+1)%slice == 0 {
			n := float64(slice * window)
			step.add(sliceLat, n, n/1000, sliceWall, sliceCPU, slow)
			sliceLat, sliceWall, sliceCPU = sliceLat[:0], 0, 0
		}

		sp = env.tr.begin("System.Snapshot", 0, i)
		snap := sys.Snapshot()
		env.tr.end(sp)
		sum := kernels.HistogramSum(sys, ks.lay)
		r.op(sum >= snap.TotalOps && sum-snap.TotalOps <= cores,
			"window %d: bins sum to %d but %d updates completed (%d cores)", i, sum, snap.TotalOps, cores)
		if i == digestWindows-1 {
			fixed = platform.Delta(start, snap)
			digest = activityDigest(snap)
		}
		if env.tr != nil {
			sp = env.tr.begin("System.PublishObs", 0, i)
			t := time.Now()
			sys.PublishObs(reg)
			publishes = append(publishes, float64(time.Since(t))/1e3)
			env.tr.end(sp)
		}
	}
	step.report(r)
	cycles := float64(len(windows) * window)

	want, ok := referenceData.activityDigest(env, r.Workload)
	switch {
	case ok && digest != want:
		r.problem("Activity digest after %d windows is %s, reference %s", digestWindows, digest, want)
		r.Failed = r.Attempted
	case !ok && env.seed == 1:
		fmt.Fprintf(os.Stderr, "bench: %s: no reference Activity digest; this run's is %s\n", r.Workload, digest)
	}
	if env.tr == nil {
		return nil
	}

	// Per-layer: the kernel's own accounting over the timed step.
	k := sys.Kernel
	visits := float64((k.SlotsTicked - k0.SlotsTicked) + (k.RoutersTicked - k0.RoutersTicked) +
		(k.BanksTicked - k0.BanksTicked) + (k.DelivTicked - k0.DelivTicked))
	var wall time.Duration
	for _, d := range windows {
		wall += d
	}
	snap := reg.Snapshot()
	r.set("platform.visits_per_cycle", visits/cycles)
	r.set("platform.slots_per_cycle", float64(k.SlotsTicked-k0.SlotsTicked)/cycles)
	r.set("platform.routers_per_cycle", float64(k.RoutersTicked-k0.RoutersTicked)/cycles)
	r.set("platform.banks_per_cycle", float64(k.BanksTicked-k0.BanksTicked)/cycles)
	r.set("platform.deliv_per_cycle", float64(k.DelivTicked-k0.DelivTicked)/cycles)
	r.set("platform.ns_per_visit", ratio(float64(wall), visits))
	r.set("platform.parks_per_cycle", float64(k.Parks-k0.Parks)/cycles)
	r.set("platform.wakeheap_ops_per_cycle",
		float64(snap.Counter("kernel.wakeheap.push")+snap.Counter("kernel.wakeheap.pop"))/cycles)
	r.set("platform.ff_share", float64(k.FFCyclesSaved-k0.FFCyclesSaved)/cycles)
	r.set("platform.partitions", float64(sys.Partitions()))
	r.set("platform.fused_share", ratio(float64(sys.FusedCycles()-fused0), float64(k.Ticks-k0.Ticks)))
	r.set("platform.allocs_per_kcycle", float64(allocs)/(cycles/1000))
	r.set("platform.gc_cycles", float64(runtimeCounter(gcSample)-gc0))
	r.set("platform.new_ms", median(news))
	r.set("platform.settle_ms", median(settles))
	r.set("obs.publish_us", median(publishes))

	// The auto rate over the same windows on a system forced to one
	// partition; 1 when auto chose one partition itself.
	speedup := 1.0
	if sys.Partitions() > 1 {
		rate := func(s *platform.System) float64 {
			var rates []float64
			for i := 0; i < slice*minSlices; i++ {
				t := time.Now()
				s.Run(window)
				rates = append(rates, float64(window)/time.Since(t).Seconds())
			}
			return median(rates)
		}
		seq := kw.build(env, topo, base, 1).sys
		speedup = rate(sys) / rate(seq)
	}
	r.set("platform.parallel_speedup", speedup)

	setSimCPU(r, fixed, cores)
	return nil
}

// setSimCPU reports the simulated machine's statistics over a fixed
// span. The core-cycle shares partition every core-cycle: the core
// counters classify all but the cycle in which a waiting request is
// accepted by the port, which issue_share accounts.
func setSimCPU(r *result, a platform.Activity, cores uint64) {
	cycles := float64(a.Cycle)
	coreCycles := cycles * float64(cores)
	shares := map[string]uint64{
		"sim.cpu.busy_share":    a.BusyCycles,
		"sim.cpu.memwait_share": a.MemWaitCycles,
		"sim.cpu.sleep_share":   a.SleepCycles,
		"sim.cpu.pause_share":   a.PauseCycles,
		"sim.cpu.stall_share":   a.IssueStallCycles,
	}
	rest := uint64(a.Cycle)*cores - a.HaltedCycles // the histogram programs never halt
	for name, v := range shares {
		r.set(name, float64(v)/coreCycles)
		rest -= v
	}
	r.set("sim.cpu.issue_share", float64(rest)/coreCycles)
	r.set("sim.cpu.ipc", float64(a.Instrs)/coreCycles)
	r.set("sim.cpu.ops_per_cycle", float64(a.TotalOps)/cycles)
	r.set("sim.cpu.wait_refusals", float64(a.WaitRefusals))
	r.set("sim.noc.flits_per_cycle", float64(a.Flits)/cycles)
	r.set("sim.mem.accesses_per_cycle", float64(a.BankAccesses)/cycles)
	r.set("sim.reserve.sc_success_ratio", ratio(float64(a.SCSuccess), float64(a.SCSuccess+a.SCFail)))
	r.set("sim.colibri.wakeups_per_op", ratio(float64(a.WakeUps), float64(a.TotalOps)))
	r.set("sim.colibri.succ_updates_per_op", ratio(float64(a.SuccUpdates), float64(a.TotalOps)))
}
