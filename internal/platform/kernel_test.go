package platform_test

// Differential tests of the activity-driven simulation kernel: the
// scheduled Tick/Run/RunUntilHalted must be cycle-exact against the
// retained dense reference loop (TickDense/RunDense) — identical
// Activity snapshots every cycle, identical memory, identical clock —
// across every registered policy (built-in plus a test-registered custom
// one) and across the small and paper-scale mempool topologies.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/platform"
	"repro/internal/reserve"
)

// kernelTestPolicy is a custom policy registered only in this test
// binary (an LRSCwait queue wrapper), so the parity suite also covers
// hardware that entered through the open RegisterPolicy path.
type kernelTestPolicy struct{}

func (kernelTestPolicy) Name() string { return "custom-kernel" }

func (p kernelTestPolicy) Normalize(platform.PolicyParams, noc.Topology) (platform.Policy, error) {
	return p, nil
}

func (kernelTestPolicy) NewAdapter(b platform.BankContext) mem.Adapter {
	return reserve.NewWaitQueue(b.NumCores)
}

var registerKernelTestPolicy = sync.OnceFunc(func() {
	platform.MustRegisterPolicy(kernelTestPolicy{})
})

// parityPrograms picks a deterministic contended workload by what the
// policy serves (platform.Serves), so a custom policy gets one its
// hardware makes progress with: the LRwait/SCwait histogram where
// LRwait is served (sleeping cores, wake-ups), else the LR/SC histogram
// with retry backoff (PAUSE timers), else the AMO roofline. Colibri
// additionally mixes in the Mwait MCS lock, whose wake cascades run
// through the Qnodes only Colibri has. Cores run finite iteration
// counts staggered by core ID so they halt at different times,
// exercising the halted-span accounting; one core halts immediately.
func parityPrograms(policy platform.PolicyKind, topo noc.Topology, itersBase int) func(core int) *isa.Program {
	lay := platform.NewLayout(0)
	hist := kernels.NewHistLayout(lay, 4, topo.NumCores())
	const backoff = 32
	served, err := platform.Serves(policy, platform.PolicyParams{}, topo)
	if err != nil {
		panic(err)
	}
	variant := kernels.HistAmoAdd
	switch {
	case served&platform.ClassLRSCWait != 0:
		variant = kernels.HistLRSCWait
	case served&platform.ClassLRSC != 0:
		variant = kernels.HistLRSC
	}
	progs := make(map[int]*isa.Program)
	prog := func(v kernels.HistVariant, iters int) *isa.Program {
		key := int(v)*1000 + iters
		if p, ok := progs[key]; ok {
			return p
		}
		p := kernels.HistogramProgram(v, hist, backoff, iters)
		progs[key] = p
		return p
	}
	idle := func() *isa.Program {
		b := isa.NewBuilder()
		b.Halt()
		return b.MustBuild()
	}()
	return func(core int) *isa.Program {
		if core == 1 {
			return idle
		}
		iters := itersBase + core%5
		if policy == platform.PolicyColibri && core%3 == 0 {
			return prog(kernels.HistLockMCSMwait, iters)
		}
		return prog(variant, iters)
	}
}

// parityPair builds two identical systems for one policy/topology.
func parityPair(policy platform.PolicyKind, topo noc.Topology, itersBase int) (dense, sched *platform.System) {
	progFor := parityPrograms(policy, topo, itersBase)
	cfg := platform.Config{Topo: topo, Policy: policy}
	return platform.New(cfg, progFor), platform.New(cfg, progFor)
}

func requireSameActivity(t *testing.T, cycle int, dense, sched platform.Activity) {
	t.Helper()
	if !reflect.DeepEqual(dense, sched) {
		t.Fatalf("cycle %d: scheduled kernel diverged from dense reference\ndense: %+v\nsched: %+v",
			cycle, dense, sched)
	}
}

// forEachParityCase runs body for every registered policy on the small
// topology, and (unless -short) on the paper-scale mempool topology.
func forEachParityCase(t *testing.T, cycles map[string]int, body func(t *testing.T, policy platform.PolicyKind, topo noc.Topology, n int)) {
	t.Helper()
	registerKernelTestPolicy()
	topos := []struct {
		name string
		topo noc.Topology
	}{
		{"small", noc.Small()},
		{"mempool", noc.MemPool256()},
	}
	for _, tc := range topos {
		for _, name := range platform.PolicyNames() {
			tc := tc
			t.Run(fmt.Sprintf("%s/%s", tc.name, name), func(t *testing.T) {
				if tc.name == "mempool" && testing.Short() {
					t.Skip("mempool parity skipped in -short")
				}
				body(t, platform.PolicyKind(name), tc.topo, cycles[tc.name])
			})
		}
	}
}

// TestKernelParityCycleByCycle drives a dense and a scheduled system in
// lockstep and requires identical Activity snapshots every single cycle.
func TestKernelParityCycleByCycle(t *testing.T) {
	forEachParityCase(t, map[string]int{"small": 3000, "mempool": 400},
		func(t *testing.T, policy platform.PolicyKind, topo noc.Topology, n int) {
			dense, sched := parityPair(policy, topo, 8)
			for cycle := 0; cycle <= n; cycle++ {
				requireSameActivity(t, cycle, dense.Snapshot(), sched.Snapshot())
				if dq, sq := dense.Quiescent(), sched.Quiescent(); dq != sq {
					t.Fatalf("cycle %d: Quiescent dense=%v sched=%v", cycle, dq, sq)
				}
				if dh, sh := dense.AllHalted(), sched.AllHalted(); dh != sh {
					t.Fatalf("cycle %d: AllHalted dense=%v sched=%v", cycle, dh, sh)
				}
				dense.TickDense()
				sched.Tick()
			}
			for w := uint32(0); w < 16; w++ {
				if dv, sv := dense.ReadWord(4*w), sched.ReadWord(4*w); dv != sv {
					t.Fatalf("word %d: dense=%d sched=%d", w, dv, sv)
				}
			}
		})
}

// hotSpotCases are the congested parity workloads: every core updates
// one histogram bin, so requests back up from the hot bank through the
// fabric — the regime where routers sleep on full outputs and wake on
// space, which the spread-out parity programs may never reach.
var hotSpotCases = []struct {
	name    string
	policy  platform.PolicyKind
	variant kernels.HistVariant
}{
	{"amo", platform.PolicyPlain, kernels.HistAmoAdd},
	{"lrsc", platform.PolicyLRSCSingle, kernels.HistLRSC},
}

// forEachHotSpotCase runs body for every hot-spot workload on the small
// and medium topologies with a config and a 1-bin histogram program.
func forEachHotSpotCase(t *testing.T, cycles map[string]int, body func(t *testing.T, cfg platform.Config, progFor func(int) *isa.Program, n int)) {
	t.Helper()
	topos := []struct {
		name string
		topo noc.Topology
	}{
		{"small", noc.Small()},
		{"medium", noc.Medium()},
	}
	for _, tc := range topos {
		for _, hc := range hotSpotCases {
			t.Run(fmt.Sprintf("%s/%s", tc.name, hc.name), func(t *testing.T) {
				hist := kernels.NewHistLayout(platform.NewLayout(0), 1, tc.topo.NumCores())
				prog := kernels.HistogramProgram(hc.variant, hist, 32, 1<<20)
				body(t, platform.Config{Topo: tc.topo, Policy: hc.policy}, platform.SameProgram(prog), cycles[tc.name])
			})
		}
	}
}

// requireRoutersSlept checks that a hot-spot run really exercised
// wake-on-space: some router slept, and some pop woke one.
func requireRoutersSlept(t *testing.T, sys *platform.System) {
	t.Helper()
	slept, woken := sys.RouterSleeps()
	if slept == 0 || woken == 0 {
		t.Fatalf("hot spot exercised no router sleep: %d slept, %d woken by a pop", slept, woken)
	}
}

// TestKernelParityHotSpot is TestKernelParityCycleByCycle under a hot
// spot: the scheduled kernel, whose blocked routers sleep until a pop
// frees their output, must match the dense loop, which ticks every
// router every cycle, snapshot for snapshot.
func TestKernelParityHotSpot(t *testing.T) {
	forEachHotSpotCase(t, map[string]int{"small": 2000, "medium": 800},
		func(t *testing.T, cfg platform.Config, progFor func(int) *isa.Program, n int) {
			dense, sched := platform.New(cfg, progFor), platform.New(cfg, progFor)
			for cycle := 0; cycle <= n; cycle++ {
				requireSameActivity(t, cycle, dense.Snapshot(), sched.Snapshot())
				if dq, sq := dense.Quiescent(), sched.Quiescent(); dq != sq {
					t.Fatalf("cycle %d: Quiescent dense=%v sched=%v", cycle, dq, sq)
				}
				dense.TickDense()
				sched.Tick()
			}
			if dv, sv := dense.ReadWord(0), sched.ReadWord(0); dv != sv {
				t.Fatalf("hot bin: dense=%d sched=%d", dv, sv)
			}
			requireRoutersSlept(t, sched)
		})
}

// TestKernelParityRunUntilHalted compares the fast-forwarding
// RunUntilHalted against a dense reference loop run to completion:
// same halt outcome, same final clock, same final snapshot and memory.
func TestKernelParityRunUntilHalted(t *testing.T) {
	forEachParityCase(t, map[string]int{"small": 300000, "mempool": 300000},
		func(t *testing.T, policy platform.PolicyKind, topo noc.Topology, max int) {
			// The dense reference side dominates runtime at mempool
			// scale; a shorter finite workload keeps the suite quick
			// while still crossing every halt/fast-forward path.
			itersBase := 8
			if topo.NumCores() > 64 {
				itersBase = 1
			}
			dense, sched := parityPair(policy, topo, itersBase)
			denseHalted := false
			for i := 0; i < max && !denseHalted; i++ {
				denseHalted = dense.AllHalted()
				if !denseHalted {
					dense.TickDense()
				}
			}
			if !denseHalted {
				denseHalted = dense.AllHalted()
			}
			schedHalted := sched.RunUntilHalted(max)
			if denseHalted != schedHalted {
				t.Fatalf("halted: dense=%v sched=%v", denseHalted, schedHalted)
			}
			if !denseHalted {
				t.Fatalf("parity workload did not halt within %d cycles", max)
			}
			requireSameActivity(t, int(dense.Clock.Now()), dense.Snapshot(), sched.Snapshot())
			if dense.Clock.Now() != sched.Clock.Now() {
				t.Fatalf("clock: dense=%d sched=%d", dense.Clock.Now(), sched.Clock.Now())
			}
			for w := uint32(0); w < 16; w++ {
				if dv, sv := dense.ReadWord(4*w), sched.ReadWord(4*w); dv != sv {
					t.Fatalf("word %d: dense=%d sched=%d", w, dv, sv)
				}
			}
		})
}

// TestKernelFastForwardExact pins the idle-span fast-forward: a workload
// dominated by long PAUSE backoffs (every core asleep on a timer most of
// the time, nothing in flight) must produce snapshots identical to dense
// simulation of every empty cycle — including the PauseCycles and
// HaltedCycles the skipped spans would have accumulated — at several
// observation points that deliberately land inside idle spans.
func TestKernelFastForwardExact(t *testing.T) {
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
	cfg := platform.SmallConfig(platform.PolicyPlain)
	dense := platform.New(cfg, platform.SameProgram(prog))
	sched := platform.New(cfg, platform.SameProgram(prog))
	// Windows chosen to cut idle spans mid-way.
	for _, window := range []int{97, 513, 1000, 3001, 170} {
		dense.RunDense(window)
		sched.Run(window)
		if dense.Clock.Now() != sched.Clock.Now() {
			t.Fatalf("clock after window %d: dense=%d sched=%d",
				window, dense.Clock.Now(), sched.Clock.Now())
		}
		requireSameActivity(t, int(dense.Clock.Now()), dense.Snapshot(), sched.Snapshot())
	}
	if !sched.AllHalted() || !dense.AllHalted() {
		t.Fatal("fast-forward workload should have halted inside the windows")
	}
}

// TestKernelParityRunStep drives the scheduled system through Run(1),
// one cycle per call, so every cycle passes the run loop's decide step
// and its one-cycle fast-forwards, against the dense loop's TickDense.
func TestKernelParityRunStep(t *testing.T) {
	forEachParityCase(t, map[string]int{"small": 1200, "mempool": 250},
		func(t *testing.T, policy platform.PolicyKind, topo noc.Topology, n int) {
			dense, sched := parityPair(policy, topo, 8)
			for cycle := 0; cycle <= n; cycle++ {
				requireSameActivity(t, cycle, dense.Snapshot(), sched.Snapshot())
				if dq, sq := dense.Quiescent(), sched.Quiescent(); dq != sq {
					t.Fatalf("cycle %d: Quiescent dense=%v sched=%v", cycle, dq, sq)
				}
				if dh, sh := dense.AllHalted(), sched.AllHalted(); dh != sh {
					t.Fatalf("cycle %d: AllHalted dense=%v sched=%v", cycle, dh, sh)
				}
				dense.TickDense()
				sched.Run(1)
			}
		})
}

// tileMixProgram alternates same-tile AMO spans (no link arbiter or
// group router carries a flit) with cross-tile AMO bursts (they all
// wake), separated by a PAUSE and staggered by core ID, so the fabric
// keeps entering and leaving cross-tile quiet at ragged times. Both
// test topologies share CoresPerTile=4 and BanksPerTile=16, which the
// address arithmetic hardcodes.
func tileMixProgram(core int) *isa.Program {
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

// TestKernelParityTileMix runs tileMixProgram to completion on the
// small topology, once a cycle at a time through Run(1) and once in
// Run windows that cut through its quiet and PAUSE spans, and requires
// the dense loop's snapshots, clock and memory.
func TestKernelParityTileMix(t *testing.T) {
	cfg := platform.SmallConfig(platform.PolicyPlain)
	requireSameMemory := func(t *testing.T, dense, sched *platform.System) {
		t.Helper()
		for w := uint32(0); w < 128; w++ {
			if dv, sv := dense.ReadWord(4*w), sched.ReadWord(4*w); dv != sv {
				t.Fatalf("word %d: dense=%d sched=%d", w, dv, sv)
			}
		}
	}
	t.Run("step", func(t *testing.T) {
		dense, sched := platform.New(cfg, tileMixProgram), platform.New(cfg, tileMixProgram)
		const maxCycles = 6000
		for cycle := 0; !dense.AllHalted(); cycle++ {
			if cycle == maxCycles {
				t.Fatalf("workload did not halt within %d cycles", maxCycles)
			}
			requireSameActivity(t, cycle, dense.Snapshot(), sched.Snapshot())
			dense.TickDense()
			sched.Run(1)
		}
		if !sched.AllHalted() {
			t.Fatal("scheduled system still running after the dense one halted")
		}
		requireSameMemory(t, dense, sched)
	})
	t.Run("windows", func(t *testing.T) {
		dense, sched := platform.New(cfg, tileMixProgram), platform.New(cfg, tileMixProgram)
		for _, window := range []int{113, 517, 61, 2000, 3001} {
			dense.RunDense(window)
			sched.Run(window)
			if dense.Clock.Now() != sched.Clock.Now() {
				t.Fatalf("clock after window %d: dense=%d sched=%d",
					window, dense.Clock.Now(), sched.Clock.Now())
			}
			requireSameActivity(t, int(sched.Clock.Now()), dense.Snapshot(), sched.Snapshot())
		}
		if !dense.AllHalted() || !sched.AllHalted() {
			t.Fatal("workload should halt inside the windows")
		}
		if sched.Kernel.FFSpans == 0 {
			t.Fatal("no window fast-forwarded an idle span")
		}
		requireSameMemory(t, dense, sched)
	})
}

// randomPool is the word addresses random programs load, store and
// reserve: a few words per bank on banks in every tile of the small
// topology (64 banks), so cores collide on some and not on others.
var randomPool = []uint32{0, 4, 8, 68, 132, 256, 260, 516, 1020, 772}

// randomProgram builds a seeded random program for the small topology:
// a few counted loops whose bodies mix ALU operations, forward branches
// (some on the cycle count), calls to a subroutine, MARK, CSRCYCLE, the
// other CSR reads, PAUSE, loads, stores, AMOs and LR/SC pairs, ending
// in HALT. Address registers A0–A3 hold pool words and only LI writes
// them; S0 counts loops, RA holds return addresses and T6 pause
// lengths, so every address is valid and every loop ends.
func randomProgram(rng *rand.Rand) *isa.Program {
	b := isa.NewBuilder()
	addrs := []isa.Reg{isa.A0, isa.A1, isa.A2, isa.A3}
	vals := []isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.T5, isa.S1, isa.S2}
	for _, r := range addrs {
		b.Li(r, int32(randomPool[rng.Intn(len(randomPool))]))
	}
	for _, r := range vals {
		b.Li(r, int32(rng.Intn(64)))
	}
	val := func() isa.Reg { return vals[rng.Intn(len(vals))] }
	addr := func() isa.Reg { return addrs[rng.Intn(len(addrs))] }
	labels := 0
	label := func() string { labels++; return fmt.Sprintf("L%d", labels) }
	private := func() {
		switch rng.Intn(8) {
		case 0:
			b.Add(val(), val(), val())
		case 1:
			b.Sub(val(), val(), val())
		case 2:
			b.Xor(val(), val(), val())
		case 3:
			b.Slli(val(), val(), int32(rng.Intn(5)))
		case 4:
			b.Slt(val(), val(), val())
		case 5:
			b.Mul(val(), val(), val())
		case 6:
			b.Addi(val(), val(), int32(rng.Intn(33)-16))
		case 7:
			b.Cycle(val())
		}
	}
	instr := func() {
		switch rng.Intn(14) {
		case 0, 1, 2, 3:
			private()
		case 4:
			b.Mark()
		case 5: // a branch on the cycle count: run-ahead must read the right cycle
			skip := label()
			t := val()
			b.Cycle(t)
			b.Andi(t, t, 1)
			b.Bnez(t, skip)
			b.Mark()
			private()
			b.Label(skip)
		case 6:
			skip := label()
			b.Blt(val(), val(), skip)
			private()
			b.Label(skip)
		case 7:
			b.Jal(isa.RA, "sub")
		case 8:
			b.Li(isa.T6, int32(rng.Intn(24)))
			b.Pause(isa.T6)
		case 9:
			b.Lw(val(), addr(), 0)
		case 10:
			b.Sw(val(), addr(), 0)
		case 11:
			b.AmoAdd(val(), val(), addr())
		case 12:
			a, t := addr(), val()
			b.Lr(t, a)
			b.Addi(t, t, 1)
			b.Sc(val(), t, a)
		case 13:
			b.CoreID(val())
			b.NCores(val())
		}
	}
	for blocks := 3 + rng.Intn(4); blocks > 0; blocks-- {
		loop := label()
		b.Li(isa.S0, int32(1+rng.Intn(8)))
		b.Label(loop)
		for n := 2 + rng.Intn(10); n > 0; n-- {
			instr()
		}
		b.Addi(isa.S0, isa.S0, -1)
		b.Bnez(isa.S0, loop)
	}
	b.Halt()
	b.Label("sub")
	for n := 1 + rng.Intn(4); n > 0; n-- {
		private()
	}
	b.Mark()
	b.Ret()
	return b.MustBuild()
}

// requireSameCores compares every core's registers and PC.
func requireSameCores(t *testing.T, cycle int, dense, sched *platform.System) {
	t.Helper()
	for i, dc := range dense.Cores {
		sc := sched.Cores[i]
		if dc.PC() != sc.PC() {
			t.Fatalf("cycle %d: core %d pc dense=%d sched=%d", cycle, i, dc.PC(), sc.PC())
		}
		for r := isa.Reg(1); r < 32; r++ {
			if dv, sv := dc.Reg(r), sc.Reg(r); dv != sv {
				t.Fatalf("cycle %d: core %d %s dense=%d sched=%d", cycle, i, r, dv, sv)
			}
		}
	}
}

// TestKernelParityRandomPrograms runs seeded random programs (see
// randomProgram; a different one per core) under every registered
// policy on the small topology. The scheduled system advances through
// Run windows of odd lengths, with direct Ticks between some of them,
// and finally RunUntilHalted; the dense system ticks the same cycles.
// After every step the snapshots, clocks, registers, PCs and pool
// words must agree. Run windows let cores run ahead through private
// instructions up to each window's end; direct Ticks let none.
func TestKernelParityRandomPrograms(t *testing.T) {
	registerKernelTestPolicy()
	windows := []int{1, 2, 3, 7, 13, 61, 113}
	const seeds, maxCycles = 8, 20000
	for _, name := range platform.PolicyNames() {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				progs := make([]*isa.Program, noc.Small().NumCores())
				for i := range progs {
					progs[i] = randomProgram(rand.New(rand.NewSource(seed*1000 + int64(i))))
				}
				progFor := func(core int) *isa.Program { return progs[core] }
				cfg := platform.SmallConfig(platform.PolicyKind(name))
				dense, sched := platform.New(cfg, progFor), platform.New(cfg, progFor)
				check := func() {
					t.Helper()
					cycle := int(dense.Clock.Now())
					if sc := int(sched.Clock.Now()); sc != cycle {
						t.Fatalf("clock: dense=%d sched=%d", cycle, sc)
					}
					requireSameActivity(t, cycle, dense.Snapshot(), sched.Snapshot())
					requireSameCores(t, cycle, dense, sched)
					for _, a := range randomPool {
						if dv, sv := dense.ReadWord(a), sched.ReadWord(a); dv != sv {
							t.Fatalf("cycle %d: word %#x dense=%d sched=%d", cycle, a, dv, sv)
						}
					}
				}
				for i := 0; i < 3*len(windows); i++ {
					w := windows[i%len(windows)]
					dense.RunDense(w)
					sched.Run(w)
					check()
					if i%3 == 1 {
						dense.TickDense()
						sched.Tick()
						check()
					}
				}
				denseHalted := dense.AllHalted()
				for n := 0; n < maxCycles && !denseHalted; n++ {
					dense.TickDense()
					denseHalted = dense.AllHalted()
				}
				if schedHalted := sched.RunUntilHalted(maxCycles); schedHalted != denseHalted {
					t.Fatalf("halted: dense=%v sched=%v", denseHalted, schedHalted)
				}
				check()
				if !denseHalted {
					t.Fatalf("random programs did not halt within %d cycles", maxCycles)
				}
			})
		}
	}
}

// TestQuiescentQnodeState is the regression test for Quiescent ignoring
// Qnode-buffered episode state: a core holding an LRwait grant it never
// released leaves every FIFO and bank idle, yet the system is not
// quiescent — the Qnode still tracks the open episode.
func TestQuiescentQnodeState(t *testing.T) {
	prog := func() *isa.Program {
		b := isa.NewBuilder()
		b.Li(isa.A0, 0)
		b.LrWait(isa.T0, isa.A0) // grant arrives, episode stays open
		b.Label("spin")
		b.Li(isa.T1, 4000)
		b.Pause(isa.T1) // no SCwait: park forever without traffic
		b.J("spin")
		return b.MustBuild()
	}()
	idle := func() *isa.Program {
		b := isa.NewBuilder()
		b.Halt()
		return b.MustBuild()
	}()
	sys := platform.New(platform.SmallConfig(platform.PolicyWaitQueue),
		func(core int) *isa.Program {
			if core == 0 {
				return prog
			}
			return idle
		})
	sys.Run(300) // grant long delivered, fabric drained, core 0 paused
	if sys.Fabric.InFlight() != 0 {
		t.Fatal("setup: fabric should have drained")
	}
	if sys.Quiescent() {
		t.Fatal("Quiescent ignored the Qnode's open LRwait episode")
	}
	if sys.Qnodes[0].Idle() {
		t.Fatal("setup: qnode 0 should hold episode state")
	}
}
