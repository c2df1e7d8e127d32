package platform_test

// Differential tests of the partitioned kernel: Tick / Run /
// RunUntilHalted with P>1 partitions must be bit-identical to the same
// kernel at P=1 — same Activity snapshot every cycle, same memory, same
// clock, same aggregate KernelStats — for every partition count, every
// registered policy, and both driving styles (worker goroutines under
// Run, and the lockstep single-threaded cycle behind Tick).

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/platform"
)

// parParityPair builds two identical systems: a one-partition reference
// and a partitioned one with the requested partition count.
func parParityPair(policy platform.PolicyKind, topo noc.Topology, itersBase, parts int) (seq, par *platform.System) {
	progFor := parityPrograms(policy, topo, itersBase)
	seq = platform.New(platform.Config{Topo: topo, Policy: policy}, progFor)
	par = platform.New(platform.Config{Topo: topo, Policy: policy, Partitions: parts}, progFor)
	return seq, par
}

// parityPartCounts is the partition set the suite sweeps: an even split,
// a deliberately ragged odd split (clamped to the tile count on the
// small topology), and whatever this host would pick by default.
func parityPartCounts() []int {
	counts := []int{2, 7}
	if p := runtime.GOMAXPROCS(0); p != 2 && p != 7 {
		counts = append(counts, p)
	}
	return counts
}

func requireSameKernelStats(t *testing.T, seq, par *platform.System) {
	t.Helper()
	if !reflect.DeepEqual(seq.Kernel, par.Kernel) {
		t.Fatalf("KernelStats diverged\nseq: %+v\npar: %+v", seq.Kernel, par.Kernel)
	}
}

func requireSameMemory(t *testing.T, seq, par *platform.System) {
	t.Helper()
	for w := uint32(0); w < 16; w++ {
		if sv, pv := seq.ReadWord(4*w), par.ReadWord(4*w); sv != pv {
			t.Fatalf("word %d: seq=%d par=%d", w, sv, pv)
		}
	}
}

// TestParallelParityCycleByCycle drives a one-partition and a
// partitioned system in lockstep, one Run(1) at a time, and requires identical
// Activity snapshots every single cycle, for every partition count in
// the sweep. The aggregate KernelStats must match too: the partitioned
// kernel visits exactly the components the sequential one does.
func TestParallelParityCycleByCycle(t *testing.T) {
	forEachParityCase(t, map[string]int{"small": 1200, "mempool": 250},
		func(t *testing.T, policy platform.PolicyKind, topo noc.Topology, n int) {
			for _, parts := range parityPartCounts() {
				parts := parts
				t.Run(fmt.Sprintf("p%d", parts), func(t *testing.T) {
					seq, par := parParityPair(policy, topo, 8, parts)
					for cycle := 0; cycle <= n; cycle++ {
						requireSameActivity(t, cycle, seq.Snapshot(), par.Snapshot())
						if sq, pq := seq.Quiescent(), par.Quiescent(); sq != pq {
							t.Fatalf("cycle %d: Quiescent seq=%v par=%v", cycle, sq, pq)
						}
						if sh, ph := seq.AllHalted(), par.AllHalted(); sh != ph {
							t.Fatalf("cycle %d: AllHalted seq=%v par=%v", cycle, sh, ph)
						}
						seq.Run(1)
						par.Run(1)
					}
					requireSameKernelStats(t, seq, par)
					requireSameMemory(t, seq, par)
				})
			}
		})
}

// TestParallelParityHotSpot is TestParallelParityCycleByCycle under a
// hot spot. Sleeping routers are woken by pops from other phases and,
// at P>1, from other partitions, so the partitioned kernel must match
// P=1 per cycle and in every kernel counter, and it must have put
// exactly as many routers to sleep and woken as many.
func TestParallelParityHotSpot(t *testing.T) {
	forEachHotSpotCase(t, map[string]int{"small": 1500, "medium": 600},
		func(t *testing.T, cfg platform.Config, progFor func(int) *isa.Program, n int) {
			for _, parts := range parityPartCounts() {
				t.Run(fmt.Sprintf("p%d", parts), func(t *testing.T) {
					seq := platform.New(cfg, progFor)
					pcfg := cfg
					pcfg.Partitions = parts
					par := platform.New(pcfg, progFor)
					for cycle := 0; cycle <= n; cycle++ {
						requireSameActivity(t, cycle, seq.Snapshot(), par.Snapshot())
						seq.Run(1)
						par.Run(1)
					}
					requireSameKernelStats(t, seq, par)
					requireSameMemory(t, seq, par)
					requireRoutersSlept(t, par)
					ss, sw := seq.RouterSleeps()
					ps, pw := par.RouterSleeps()
					if ss != ps || sw != pw {
						t.Fatalf("router sleeps: seq %d slept/%d woken, par %d/%d", ss, sw, ps, pw)
					}
				})
			}
		})
}

// TestParallelInlineTickParity covers the other driving style: Tick on a
// partitioned system runs the barrier-cycle structure inline on one
// thread (that is what keeps per-cycle drivers like the trace sampler
// working), and must equal the sequential kernel exactly like the
// worker-driven variant.
func TestParallelInlineTickParity(t *testing.T) {
	forEachParityCase(t, map[string]int{"small": 800, "mempool": 150},
		func(t *testing.T, policy platform.PolicyKind, topo noc.Topology, n int) {
			seq, par := parParityPair(policy, topo, 8, 2)
			for cycle := 0; cycle <= n; cycle++ {
				requireSameActivity(t, cycle, seq.Snapshot(), par.Snapshot())
				seq.Tick()
				par.Tick() // inline partitioned cycle
			}
			requireSameKernelStats(t, seq, par)
			requireSameMemory(t, seq, par)
		})
}

// TestParallelRunParity exercises the worker-driven run loop with its
// leader-side fast-forward decisions: a PAUSE-heavy workload whose idle
// spans the windows deliberately cut mid-way, advanced in identical
// windows on both systems. Clock, snapshots and the fast-forward
// counters themselves must match.
func TestParallelRunParity(t *testing.T) {
	prog := func() *isa.Program {
		b := isa.NewBuilder()
		b.CoreID(isa.T0)
		b.Slli(isa.T0, isa.T0, 4)
		b.Addi(isa.T0, isa.T0, 200) // per-core pause length: 200 + 16*id
		b.Li(isa.S0, 6)             // six pause/mark rounds, then halt
		b.Label("loop")
		b.Pause(isa.T0)
		b.Mark()
		b.Addi(isa.S0, isa.S0, -1)
		b.Bnez(isa.S0, "loop")
		b.Halt()
		return b.MustBuild()
	}()
	for _, parts := range parityPartCounts() {
		parts := parts
		t.Run(fmt.Sprintf("p%d", parts), func(t *testing.T) {
			cfg := platform.SmallConfig(platform.PolicyPlain)
			seq := platform.New(cfg, platform.SameProgram(prog))
			cfg.Partitions = parts
			par := platform.New(cfg, platform.SameProgram(prog))
			for _, window := range []int{97, 513, 1000, 3001, 170} {
				seq.Run(window)
				par.Run(window)
				if seq.Clock.Now() != par.Clock.Now() {
					t.Fatalf("clock after window %d: seq=%d par=%d",
						window, seq.Clock.Now(), par.Clock.Now())
				}
				requireSameActivity(t, int(seq.Clock.Now()), seq.Snapshot(), par.Snapshot())
			}
			requireSameKernelStats(t, seq, par)
			if !seq.AllHalted() || !par.AllHalted() {
				t.Fatal("fast-forward workload should have halted inside the windows")
			}
		})
	}
}

// TestParallelRunUntilHaltedParity compares the halt-driven entry point:
// same halt outcome, same final clock (including the no-fast-forward
// semantics of halting mid-budget), same snapshot, memory and stats.
func TestParallelRunUntilHaltedParity(t *testing.T) {
	forEachParityCase(t, map[string]int{"small": 300000, "mempool": 300000},
		func(t *testing.T, policy platform.PolicyKind, topo noc.Topology, max int) {
			itersBase := 8
			if topo.NumCores() > 64 {
				itersBase = 1
			}
			seq, par := parParityPair(policy, topo, itersBase, 3)
			seqHalted := seq.RunUntilHalted(max)
			parHalted := par.RunUntilHalted(max)
			if seqHalted != parHalted {
				t.Fatalf("halted: seq=%v par=%v", seqHalted, parHalted)
			}
			if !seqHalted {
				t.Fatalf("parity workload did not halt within %d cycles", max)
			}
			if seq.Clock.Now() != par.Clock.Now() {
				t.Fatalf("clock: seq=%d par=%d", seq.Clock.Now(), par.Clock.Now())
			}
			requireSameActivity(t, int(seq.Clock.Now()), seq.Snapshot(), par.Snapshot())
			requireSameKernelStats(t, seq, par)
			requireSameMemory(t, seq, par)
		})
}

// TestPartitionResolution pins the partition-count plumbing: clamping to
// the tile count, the process-default escape hatch, and every value
// below 1 (PartitionsAuto included) meaning one partition for good.
func TestPartitionResolution(t *testing.T) {
	registerKernelTestPolicy()
	topo := noc.Small() // 4 tiles
	mk := func(parts int) *platform.System {
		return platform.New(platform.Config{Topo: topo, Policy: platform.PolicyPlain, Partitions: parts},
			parityPrograms(platform.PolicyPlain, topo, 4))
	}
	if got := mk(0).Partitions(); got != 1 {
		t.Fatalf("default partitions = %d, want 1 (sequential)", got)
	}
	if got := mk(7).Partitions(); got != topo.NumTiles() {
		t.Fatalf("partitions=7 resolved to %d, want clamp to %d tiles", got, topo.NumTiles())
	}
	for _, p := range []int{platform.PartitionsAuto, -3} {
		if got := mk(p).Partitions(); got != 1 {
			t.Fatalf("Partitions=%d resolved to %d, want 1", p, got)
		}
	}
	// The count is fixed at construction: a PartitionsAuto system on a
	// host with spare threads still runs on one partition after a hot
	// stretch of cycles.
	prevProcs := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prevProcs)
	aut := mk(platform.PartitionsAuto)
	aut.Run(1000)
	if got := aut.Partitions(); got != 1 {
		t.Fatalf("PartitionsAuto system on %d partitions after Run(1000), want 1", got)
	}
	defer platform.SetDefaultPartitions(0)
	platform.SetDefaultPartitions(platform.PartitionsAuto)
	if got := mk(0).Partitions(); got != 1 {
		t.Fatalf("process default PartitionsAuto resolved to %d, want 1", got)
	}
	platform.SetDefaultPartitions(2)
	if got := mk(0).Partitions(); got != 2 {
		t.Fatalf("process default 2 resolved to %d", got)
	}
	if got := mk(1).Partitions(); got != 1 {
		t.Fatalf("explicit Partitions=1 resolved to %d, want sequential override of the default", got)
	}
}

// epochCrossingProgram alternates same-tile AMO spans (every cross-tile
// router stays clean, so the partitioned kernel may fuse its barriers)
// with cross-tile AMO bursts (link arbiters wake, forcing the full
// four-barrier schedule), staggered by core ID so partitions enter and
// leave fused mode at ragged, different times. Both test topologies
// share CoresPerTile=4 and BanksPerTile=16, which the address
// arithmetic hardcodes.
func epochCrossingProgram(core int) *isa.Program {
	b := isa.NewBuilder()
	b.CoreID(isa.T0)
	b.Srli(isa.T1, isa.T0, 2) // tile = core/4
	b.Slli(isa.T1, isa.T1, 4) // first bank word of the tile
	b.Andi(isa.T2, isa.T0, 3)
	b.Add(isa.T1, isa.T1, isa.T2)
	b.Slli(isa.T1, isa.T1, 2)  // byte address of a same-tile bank word
	b.Addi(isa.T2, isa.T1, 64) // +16 words: the same slot one tile over
	b.Addi(isa.A0, isa.T0, 3)  // per-core pause length
	b.Li(isa.S0, int32(3+core%3))
	b.Label("round")
	b.Li(isa.S1, int32(12+core%7)) // quiet span: same-tile AMOs only
	b.Label("quiet")
	b.AmoAdd(isa.Zero, isa.S1, isa.T1)
	b.Addi(isa.S1, isa.S1, -1)
	b.Bnez(isa.S1, "quiet")
	b.Pause(isa.A0)               // park; the span stays cross-tile quiet
	b.Li(isa.S1, int32(2+core%3)) // burst: cross-tile AMOs wake arbiters
	b.Label("burst")
	b.AmoAdd(isa.Zero, isa.S1, isa.T2)
	b.Addi(isa.S1, isa.S1, -1)
	b.Bnez(isa.S1, "burst")
	b.Addi(isa.S0, isa.S0, -1)
	b.Bnez(isa.S0, "round")
	b.Halt()
	return b.MustBuild()
}

// TestParallelParityEpochCrossing pins the fused-cycle fast path across
// epoch transitions: a workload that repeatedly enters and leaves
// cross-tile-quiet spans must stay cycle-for-cycle identical to the
// one-partition kernel for every partition count — and the fused
// counter must prove both cycle shapes actually ran.
func TestParallelParityEpochCrossing(t *testing.T) {
	for _, parts := range parityPartCounts() {
		parts := parts
		t.Run(fmt.Sprintf("p%d", parts), func(t *testing.T) {
			cfg := platform.SmallConfig(platform.PolicyPlain)
			seq := platform.New(cfg, epochCrossingProgram)
			cfg.Partitions = parts
			par := platform.New(cfg, epochCrossingProgram)
			const maxCycles = 6000
			cycle := 0
			for ; cycle < maxCycles; cycle++ {
				requireSameActivity(t, cycle, seq.Snapshot(), par.Snapshot())
				if seq.AllHalted() {
					break
				}
				seq.Run(1)
				par.Run(1)
			}
			if !seq.AllHalted() || !par.AllHalted() {
				t.Fatalf("workload did not halt within %d cycles", maxCycles)
			}
			requireSameKernelStats(t, seq, par)
			requireSameMemory(t, seq, par)
			requireBothCycleShapes(t, par)
		})
	}
}

// requireBothCycleShapes asserts that a partitioned system ran both
// fused and four-barrier cycles: 0 < FusedCycles() < Kernel.Ticks.
func requireBothCycleShapes(t *testing.T, par *platform.System) {
	t.Helper()
	if par.Partitions() <= 1 {
		return
	}
	if fused := par.FusedCycles(); fused == 0 || fused >= par.Kernel.Ticks {
		t.Fatalf("%d of %d cycles fused; the quiet spans should fuse and the cross-tile bursts force full barriers",
			fused, par.Kernel.Ticks)
	}
}

// TestParallelRunEpochCrossing drives the same epoch-crossing workload
// through the worker-driven run loop in windows that deliberately cut
// through fused spans, checking the leader's per-window fuse decisions
// against the one-partition kernel's clock, snapshot and stats.
func TestParallelRunEpochCrossing(t *testing.T) {
	for _, parts := range parityPartCounts() {
		parts := parts
		t.Run(fmt.Sprintf("p%d", parts), func(t *testing.T) {
			cfg := platform.SmallConfig(platform.PolicyPlain)
			seq := platform.New(cfg, epochCrossingProgram)
			cfg.Partitions = parts
			par := platform.New(cfg, epochCrossingProgram)
			for _, window := range []int{113, 517, 61, 2000, 3001} {
				seq.Run(window)
				par.Run(window)
				if seq.Clock.Now() != par.Clock.Now() {
					t.Fatalf("clock after window %d: seq=%d par=%d",
						window, seq.Clock.Now(), par.Clock.Now())
				}
				requireSameActivity(t, int(seq.Clock.Now()), seq.Snapshot(), par.Snapshot())
			}
			if !seq.AllHalted() || !par.AllHalted() {
				t.Fatal("epoch-crossing workload should halt inside the windows")
			}
			requireSameKernelStats(t, seq, par)
			requireSameMemory(t, seq, par)
			requireBothCycleShapes(t, par)
		})
	}
}

// TestParallelPublishObs checks the partitioned kernel's observability:
// the aggregate kernel.* counters stay exactly the sequential set, the
// partition count is exported as a gauge, and the per-partition ticked
// counters sum to the aggregate (nothing is double- or under-counted).
func TestParallelPublishObs(t *testing.T) {
	registerKernelTestPolicy()
	topo := noc.Small()
	seq, par := parParityPair(platform.PolicyWaitQueue, topo, 8, 2)
	seq.Run(600)
	par.Run(600)

	seqReg, parReg := obs.NewRegistry(), obs.NewRegistry()
	seq.PublishObs(seqReg)
	par.PublishObs(parReg)
	seqSnap, parSnap := seqReg.Snapshot(), parReg.Snapshot()

	for name, v := range seqSnap.Counters {
		if pv := parSnap.Counter(name); pv != v {
			t.Fatalf("counter %s: seq=%d par=%d", name, v, pv)
		}
	}
	if got := parSnap.Gauges["kernel.partitions"]; got != 2 {
		t.Fatalf("kernel.partitions gauge = %d, want 2", got)
	}
	for _, phase := range []string{"slots", "routers", "banks", "deliv"} {
		var sum uint64
		for p := 0; p < 2; p++ {
			sum += parSnap.Counter(fmt.Sprintf("kernel.part.%d.%s.ticked", p, phase))
		}
		if agg := parSnap.Counter("kernel." + phase + ".ticked"); sum != agg {
			t.Fatalf("%s: per-partition sum %d != aggregate %d", phase, sum, agg)
		}
	}
}
