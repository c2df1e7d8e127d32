// Benchmarks of the activity-driven simulation kernel against the dense
// reference loop, plus the TeraPool-scale smoke test. The interesting
// metric is simulated cycles per wall-clock second: on sleep-heavy
// workloads the scheduled kernel's per-cycle cost is proportional to
// live traffic, so its advantage over dense ticking grows with core
// count — the simulator-side analogue of the paper's claim that sleeping
// cores must cost nothing.
package lrscwait_test

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/platform"
)

// kernelTopos are the scaling points of the Tick benchmarks.
func kernelTopos() []struct {
	name string
	topo noc.Topology
} {
	return []struct {
		name string
		topo noc.Topology
	}{
		{"cores=16", noc.Small()},
		{"cores=256", noc.MemPool256()},
		{"cores=1024", noc.TeraPool1024()},
	}
}

// sleeperSystem builds the sleep-heavy workload: every core issues one
// LRwait on word 0; exactly one is granted the reservation and spins on
// arithmetic forever (never releasing), while every other core sleeps in
// the bank's wait queue — the paper's polling-free wait, with N-1 of N
// cores contributing zero traffic.
func sleeperSystem(topo noc.Topology) *platform.System {
	prog := func() *isa.Program {
		b := isa.NewBuilder()
		b.Li(isa.A0, 0)
		b.LrWait(isa.T0, isa.A0)
		b.Label("spin")
		b.Addi(isa.T1, isa.T1, 1)
		b.J("spin")
		return b.MustBuild()
	}()
	cfg := platform.Config{Topo: topo, Policy: platform.PolicyWaitQueue}
	return platform.New(cfg, platform.SameProgram(prog))
}

// hotSystem builds the traffic-heavy counterpart: every core hammers the
// AMO histogram continuously, so nothing ever sleeps and the scheduler
// can skip no one — its bookkeeping overhead against the dense loop.
func hotSystem(topo noc.Topology) *platform.System {
	lay := platform.NewLayout(0)
	hist := kernels.NewHistLayout(lay, 256, topo.NumCores())
	prog := kernels.HistogramProgram(kernels.HistAmoAdd, hist, 0, 0)
	cfg := platform.Config{Topo: topo, Policy: platform.PolicyPlain}
	return platform.New(cfg, platform.SameProgram(prog))
}

// benchTickKernels measures simulated cycles/second of the scheduled
// and dense loops on the same prebuilt workload.
func benchTickKernels(b *testing.B, build func(noc.Topology) *platform.System, cyclesPerIter int) {
	for _, tc := range kernelTopos() {
		for _, k := range []struct {
			name string
			run  func(sys *platform.System, n int)
		}{
			{"kernel=sched", func(sys *platform.System, n int) { sys.Run(n) }},
			{"kernel=dense", func(sys *platform.System, n int) { sys.RunDense(n) }},
		} {
			b.Run(fmt.Sprintf("%s/%s", tc.name, k.name), func(b *testing.B) {
				if testing.Short() && k.name == "kernel=dense" && tc.topo.NumCores() >= 1024 {
					// Dense ticking walks all ~5k components of the
					// 1024-core machine every cycle (~300ms per 2k-cycle
					// iteration); -short keeps the smoke run snappy and
					// the 16/256-core variants retain the comparison.
					b.Skip("skipping dense 1024-core variant in -short mode")
				}
				sys := build(tc.topo)
				// Settle the workload (grants delivered, sleepers
				// parked) on the loop under test before timing.
				k.run(sys, 500)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.run(sys, cyclesPerIter)
				}
				b.StopTimer()
				cycles := float64(cyclesPerIter) * float64(b.N)
				b.ReportMetric(cycles/b.Elapsed().Seconds(), "cycles/sec")
			})
		}
	}
}

// quietSystem builds a traffic-heavy but tile-local workload: every core
// hammers an AMO counter in its own tile's banks forever. No link
// arbiter or group router ever carries a flit, so every cycle's router
// work is the tile routers alone.
func quietSystem(topo noc.Topology) *platform.System {
	prog := func() *isa.Program {
		b := isa.NewBuilder()
		b.CoreID(isa.T0)
		b.Srli(isa.T1, isa.T0, 2) // tile = core / CoresPerTile
		b.Slli(isa.T1, isa.T1, 4) // first bank word of the tile
		b.Andi(isa.T2, isa.T0, 3)
		b.Add(isa.T1, isa.T1, isa.T2)
		b.Slli(isa.T1, isa.T1, 2) // byte address of a same-tile bank word
		b.Li(isa.T2, 1)
		b.Label("loop")
		b.AmoAdd(isa.Zero, isa.T2, isa.T1)
		b.J("loop")
		return b.MustBuild()
	}()
	cfg := platform.Config{Topo: topo, Policy: platform.PolicyPlain}
	return platform.New(cfg, platform.SameProgram(prog))
}

// BenchmarkTickQuietSpan measures the quiet-span workload: a fully busy
// machine whose traffic never crosses a tile boundary.
func BenchmarkTickQuietSpan(b *testing.B) {
	const cyclesPerIter = 2000
	for _, tc := range kernelTopos() {
		b.Run(tc.name+"/kernel=sched", func(b *testing.B) {
			sys := quietSystem(tc.topo)
			sys.Run(500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Run(cyclesPerIter)
			}
			b.StopTimer()
			cycles := float64(cyclesPerIter) * float64(b.N)
			b.ReportMetric(cycles/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// TestTickSteadyStateZeroAlloc pins the hot path's allocation-free
// invariant: once a busy workload has settled (scratch buffers grown,
// wake heap at capacity), a System.Tick must not touch the heap at all,
// and neither may the Run loop, which therefore starts no goroutines and
// builds no closures. CI fails on any regression here, because a single
// alloc per component tick is what the zero-alloc refactor removed.
func TestTickSteadyStateZeroAlloc(t *testing.T) {
	t.Run("kernel=sched", func(t *testing.T) {
		sys := hotSystem(noc.Small())
		sys.Run(500) // settle: grants delivered, scratch buffers warm
		if avg := testing.AllocsPerRun(100, func() { sys.Tick() }); avg != 0 {
			t.Errorf("steady-state Tick allocates %.2f objects/op, want 0", avg)
		}
	})
	t.Run("kernel=sched-run", func(t *testing.T) {
		sys := hotSystem(noc.Small())
		sys.Run(500)
		if avg := testing.AllocsPerRun(100, func() { sys.Run(64) }); avg != 0 {
			t.Errorf("steady-state Run(64) allocates %.2f objects/op, want 0", avg)
		}
	})
	// At 256 cores every core runs ahead and parks on the wake heap
	// between memory operations; the steady-state Run must still
	// allocate nothing.
	t.Run("kernel=sched-run/cores=256", func(t *testing.T) {
		sys := hotSystem(noc.MemPool256())
		sys.Run(500)
		if avg := testing.AllocsPerRun(20, func() { sys.Run(64) }); avg != 0 {
			t.Errorf("steady-state Run(64) at 256 cores allocates %.2f objects/op, want 0", avg)
		}
	})
}

// BenchmarkTickIdleSleepers: N-1 of N cores asleep in an LRwait queue.
// The scheduled kernel ticks one core slot, one or two routers and a
// bank per cycle regardless of machine size; the dense loop walks every
// component. This is the workload behind the issue's >=5x target at 256+
// cores.
func BenchmarkTickIdleSleepers(b *testing.B) {
	benchTickKernels(b, sleeperSystem, 5000)
}

// BenchmarkTickHot: every core continuously busy — the scheduler's
// worst case, bounding its bookkeeping overhead over dense ticking.
func BenchmarkTickHot(b *testing.B) {
	benchTickKernels(b, hotSystem, 2000)
}

// BenchmarkTickInstrumented gates the cost of the observability layer:
// the scheduled kernel with its always-on KernelStats counting plus a
// full PublishObs into the process registry per iteration (the cold-path
// publish a sweep point pays once). Compare its cycles/sec against
// BenchmarkTickIdleSleepers/kernel=sched of the pre-instrumentation
// baseline (deltas recorded in BENCH_obs.json) — the budget is <3% on
// the sleeper hot path.
func BenchmarkTickInstrumented(b *testing.B) {
	const cyclesPerIter = 5000
	for _, tc := range kernelTopos() {
		for _, w := range []struct {
			name  string
			build func(noc.Topology) *platform.System
		}{
			{"load=sleepers", sleeperSystem},
			{"load=hot", hotSystem},
		} {
			b.Run(fmt.Sprintf("%s/%s", tc.name, w.name), func(b *testing.B) {
				sys := w.build(tc.topo)
				reg := obs.NewRegistry()
				sys.Run(500)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sys.Run(cyclesPerIter)
					sys.PublishObs(reg)
				}
				b.StopTimer()
				cycles := float64(cyclesPerIter) * float64(b.N)
				b.ReportMetric(cycles/b.Elapsed().Seconds(), "cycles/sec")
			})
		}
	}
}

// BenchmarkSnapshot times one cycle-exact Snapshot of the sleeper
// workload, which walks every core, Qnode and bank and every bank
// adapter's policy counters: 4096 of them at 1024 cores. It runs once
// per measured window, off the simulated cycle loop.
func BenchmarkSnapshot(b *testing.B) {
	for _, tc := range kernelTopos() {
		b.Run(tc.name, func(b *testing.B) {
			sys := sleeperSystem(tc.topo)
			sys.Run(500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Snapshot()
			}
		})
	}
}

// BenchmarkPublishObs times one PublishObs of the sleeper workload: the
// walk Snapshot makes, the difference against the last publish (one
// entry per core in OpsPerCore) and the registry update. A sweep point
// pays it once.
func BenchmarkPublishObs(b *testing.B) {
	for _, tc := range kernelTopos() {
		b.Run(tc.name, func(b *testing.B) {
			sys := sleeperSystem(tc.topo)
			reg := obs.NewRegistry()
			sys.Run(500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.PublishObs(reg)
			}
		})
	}
}

// TestTeraPoolRunUntilHaltedSmoke drives the full 1024-core TeraPool
// topology end to end through the scheduled kernel: every core
// atomically increments its own word (1024 distinct banks), halts, and
// the machine must reach the all-halted, quiescent state. Fast enough
// for -short: after the short burst of traffic the kernel only ever
// touches live components.
func TestTeraPoolRunUntilHaltedSmoke(t *testing.T) {
	topo := noc.TeraPool1024()
	prog := func() *isa.Program {
		b := isa.NewBuilder()
		b.CoreID(isa.T0)
		b.Slli(isa.T0, isa.T0, 2) // word index = core ID
		b.Li(isa.T1, 1)
		b.AmoAdd(isa.Zero, isa.T1, isa.T0)
		b.Halt()
		return b.MustBuild()
	}()
	sys := platform.New(platform.Config{Topo: topo, Policy: platform.PolicyLRSCSingle},
		platform.SameProgram(prog))
	if !sys.RunUntilHalted(100000) {
		t.Fatal("TeraPool system did not halt")
	}
	if !sys.Quiescent() {
		t.Fatal("halted TeraPool system not quiescent")
	}
	for c := 0; c < topo.NumCores(); c++ {
		if got := sys.ReadWord(uint32(4 * c)); got != 1 {
			t.Fatalf("core %d counter = %d, want 1", c, got)
		}
	}
	act := sys.Snapshot()
	if act.TotalOps != 0 || act.Instrs == 0 {
		t.Fatalf("unexpected activity: %d ops, %d instrs", act.TotalOps, act.Instrs)
	}
	if act.BankAccesses < uint64(topo.NumCores()) {
		t.Fatalf("bank accesses = %d, want >= %d", act.BankAccesses, topo.NumCores())
	}
}

// kernelWork is what the scheduled kernel did over a run: its visit and
// park counts and the fabric's hop traversals.
type kernelWork struct {
	Slots, Routers, Banks, Deliv, Parks, Flits uint64
}

// TestKernelWorkPinned pins the scheduling work of the benchmark
// workloads over a fixed span. The parity
// suites only compare kernels with each other, so a change that makes
// every kernel visit more components passes them; this test does not.
// A deliberate scheduling change updates the constants and says why.
func TestKernelWorkPinned(t *testing.T) {
	const cycles = 5000
	want := map[string]kernelWork{
		"hot/cores=16":       {7415, 22758, 3699, 3695, 7414, 24047},
		"hot/cores=256":      {37101, 157455, 18340, 18321, 37097, 145050},
		"hot/cores=1024":     {34798, 146009, 16413, 16398, 34796, 130697},
		"sleeper/cores=16":   {33, 58, 16, 1, 17, 53},
		"sleeper/cores=256":  {513, 1197, 256, 1, 257, 1013},
		"sleeper/cores=1024": {2049, 4961, 1024, 1, 1025, 4073},
		"quiet/cores=16":     {26656, 6656, 13312, 13312, 13344, 26624},
		"quiet/cores=256":    {426496, 106496, 212992, 212992, 213504, 425984},
		"quiet/cores=1024":   {1705984, 212992, 851968, 851968, 854016, 1703936},
	}
	for _, w := range []struct {
		name  string
		build func(noc.Topology) *platform.System
	}{
		{"hot", hotSystem},
		{"sleeper", sleeperSystem},
		{"quiet", quietSystem},
	} {
		for _, tc := range kernelTopos() {
			if testing.Short() && tc.topo.NumCores() >= 1024 {
				continue
			}
			key := w.name + "/" + tc.name
			// "parts=1" keeps the subtest names of the records that
			// also ran a partitioned kernel.
			t.Run(key+"/parts=1", func(t *testing.T) {
				sys := w.build(tc.topo)
				sys.Run(cycles)
				k := sys.Kernel
				got := kernelWork{k.SlotsTicked, k.RoutersTicked, k.BanksTicked,
					k.DelivTicked, k.Parks, sys.Fabric.Flits()}
				if got != want[key] {
					t.Errorf("kernel work %+v, want %+v", got, want[key])
				}
			})
		}
	}
}
