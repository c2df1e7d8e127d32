package platform_test

// Tests of the Config.Partitions leftover. The benchmark module still
// sets Partitions, and its results stay comparable with earlier runs
// only if the value changes nothing: a system built with any Partitions
// value must run exactly like one built without it, through Tick, Run
// and RunUntilHalted alike — same Activity snapshot every cycle, same
// memory, same clock, same KernelStats, same router sleeps and the same
// published metrics. The tests keep the names they had when Partitions
// chose a partitioned kernel; delete them with the field (ROADMAP item 8).

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/platform"
)

// parParityPair builds two systems from the same programs: a reference
// without Partitions and one with the given Partitions value.
func parParityPair(policy platform.PolicyKind, topo noc.Topology, itersBase, parts int) (seq, par *platform.System) {
	progFor := parityPrograms(policy, topo, itersBase)
	seq = platform.New(platform.Config{Topo: topo, Policy: policy}, progFor)
	par = platform.New(platform.Config{Topo: topo, Policy: policy, Partitions: parts}, progFor)
	return seq, par
}

// parityPartCounts are the Partitions values the suite sets: an even
// count and an odd one larger than the small topology's tile count.
var parityPartCounts = []int{2, 7}

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

// TestParallelParityCycleByCycle drives a reference system and one with
// Partitions set in lockstep, one Run(1) at a time, and requires
// identical Activity snapshots, Quiescent and AllHalted every cycle and
// identical KernelStats and memory at the end.
func TestParallelParityCycleByCycle(t *testing.T) {
	forEachParityCase(t, map[string]int{"small": 1200, "mempool": 250},
		func(t *testing.T, policy platform.PolicyKind, topo noc.Topology, n int) {
			for _, parts := range parityPartCounts {
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
// hot spot, where routers sleep on full outputs: both systems must put
// exactly as many routers to sleep and wake as many.
func TestParallelParityHotSpot(t *testing.T) {
	forEachHotSpotCase(t, map[string]int{"small": 1500, "medium": 600},
		func(t *testing.T, cfg platform.Config, progFor func(int) *isa.Program, n int) {
			for _, parts := range parityPartCounts {
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

// TestParallelInlineTickParity covers the other driving style: Tick, one
// cycle per call, on a system with Partitions set.
func TestParallelInlineTickParity(t *testing.T) {
	forEachParityCase(t, map[string]int{"small": 800, "mempool": 150},
		func(t *testing.T, policy platform.PolicyKind, topo noc.Topology, n int) {
			seq, par := parParityPair(policy, topo, 8, 2)
			for cycle := 0; cycle <= n; cycle++ {
				requireSameActivity(t, cycle, seq.Snapshot(), par.Snapshot())
				seq.Tick()
				par.Tick()
			}
			requireSameKernelStats(t, seq, par)
			requireSameMemory(t, seq, par)
		})
}

// TestParallelRunParity advances a PAUSE-heavy workload in Run windows
// that cut its idle spans mid-way. Clock, snapshots and the
// fast-forward counters must match after every window.
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
	for _, parts := range parityPartCounts {
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
// same halt outcome, same final clock, snapshot, memory and stats.
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

// TestPartitionResolution pins what the benchmark module reads back:
// every Partitions value, PartitionsAuto and negatives included, builds
// a system that reports one partition and no fused cycles.
func TestPartitionResolution(t *testing.T) {
	topo := noc.Small()
	for _, parts := range []int{platform.PartitionsAuto, -3, 0, 1, 2, 7} {
		sys := platform.New(platform.Config{Topo: topo, Policy: platform.PolicyPlain, Partitions: parts},
			parityPrograms(platform.PolicyPlain, topo, 4))
		sys.Run(1000)
		if sys.Partitions() != 1 || sys.FusedCycles() != 0 {
			t.Fatalf("Partitions=%d: Partitions()=%d FusedCycles()=%d, want 1 and 0",
				parts, sys.Partitions(), sys.FusedCycles())
		}
	}
}

// TestParallelParityEpochCrossing runs tileMixProgram, which keeps
// entering and leaving cross-tile quiet spans, to completion one Run(1)
// at a time and requires identical snapshots every cycle.
func TestParallelParityEpochCrossing(t *testing.T) {
	for _, parts := range parityPartCounts {
		t.Run(fmt.Sprintf("p%d", parts), func(t *testing.T) {
			cfg := platform.SmallConfig(platform.PolicyPlain)
			seq := platform.New(cfg, tileMixProgram)
			cfg.Partitions = parts
			par := platform.New(cfg, tileMixProgram)
			const maxCycles = 6000
			for cycle := 0; !seq.AllHalted(); cycle++ {
				if cycle == maxCycles {
					t.Fatalf("workload did not halt within %d cycles", maxCycles)
				}
				requireSameActivity(t, cycle, seq.Snapshot(), par.Snapshot())
				seq.Run(1)
				par.Run(1)
			}
			if !par.AllHalted() {
				t.Fatal("system with Partitions set still running after the reference halted")
			}
			requireSameKernelStats(t, seq, par)
			requireSameMemory(t, seq, par)
		})
	}
}

// TestParallelRunEpochCrossing drives tileMixProgram in Run windows that
// cut through its quiet and PAUSE spans.
func TestParallelRunEpochCrossing(t *testing.T) {
	for _, parts := range parityPartCounts {
		t.Run(fmt.Sprintf("p%d", parts), func(t *testing.T) {
			cfg := platform.SmallConfig(platform.PolicyPlain)
			seq := platform.New(cfg, tileMixProgram)
			cfg.Partitions = parts
			par := platform.New(cfg, tileMixProgram)
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
				t.Fatal("tile-mix workload should halt inside the windows")
			}
			requireSameKernelStats(t, seq, par)
			requireSameMemory(t, seq, par)
		})
	}
}

// TestParallelPublishObs checks that Partitions changes no published
// metric: the same counters and gauges with the same values, and none
// of the names only a partitioned kernel used to publish.
func TestParallelPublishObs(t *testing.T) {
	registerKernelTestPolicy()
	seq, par := parParityPair(platform.PolicyWaitQueue, noc.Small(), 8, 2)
	seq.Run(600)
	par.Run(600)

	seqReg, parReg := obs.NewRegistry(), obs.NewRegistry()
	seq.PublishObs(seqReg)
	par.PublishObs(parReg)
	seqSnap, parSnap := seqReg.Snapshot(), parReg.Snapshot()
	if !reflect.DeepEqual(seqSnap.Counters, parSnap.Counters) {
		t.Fatalf("counters diverged\nseq: %v\npar: %v", seqSnap.Counters, parSnap.Counters)
	}
	if !reflect.DeepEqual(seqSnap.Gauges, parSnap.Gauges) {
		t.Fatalf("gauges diverged\nseq: %v\npar: %v", seqSnap.Gauges, parSnap.Gauges)
	}
	if len(parSnap.Counters) == 0 {
		t.Fatal("PublishObs published no counters")
	}
	for name := range parSnap.Counters {
		if strings.HasPrefix(name, "kernel.part.") || name == "kernel.fused_cycles" {
			t.Fatalf("partitioned-kernel counter %s published", name)
		}
	}
	if _, ok := parSnap.Gauges["kernel.partitions"]; ok {
		t.Fatal("kernel.partitions gauge published")
	}
}
