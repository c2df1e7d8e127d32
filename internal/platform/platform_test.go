package platform

import (
	"testing"

	"repro/internal/isa"
)

// amoAddLoop increments mem[addr] iters times with AMOADD.
func amoAddLoop(addr uint32, iters int) *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.A0, int32(addr))
	b.Li(isa.T0, int32(iters))
	b.Li(isa.T1, 1)
	b.Label("loop")
	b.AmoAdd(isa.Zero, isa.T1, isa.A0)
	b.Mark()
	b.Addi(isa.T0, isa.T0, -1)
	b.Bnez(isa.T0, "loop")
	b.Halt()
	return b.MustBuild()
}

// lrscLoop increments mem[addr] iters times with an LR/SC retry loop and a
// fixed backoff on failure.
func lrscLoop(addr uint32, iters int, backoff int32) *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.A0, int32(addr))
	b.Li(isa.T0, int32(iters))
	b.Li(isa.T4, backoff)
	b.Label("retry")
	b.Lr(isa.T2, isa.A0)
	b.Addi(isa.T2, isa.T2, 1)
	b.Sc(isa.T3, isa.T2, isa.A0)
	b.Beqz(isa.T3, "ok")
	b.Pause(isa.T4)
	b.J("retry")
	b.Label("ok")
	b.Mark()
	b.Addi(isa.T0, isa.T0, -1)
	b.Bnez(isa.T0, "retry")
	b.Halt()
	return b.MustBuild()
}

// lrscWaitLoop increments mem[addr] iters times with LRwait/SCwait.
func lrscWaitLoop(addr uint32, iters int, backoff int32) *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.A0, int32(addr))
	b.Li(isa.T0, int32(iters))
	b.Li(isa.T4, backoff)
	b.Label("retry")
	b.LrWait(isa.T2, isa.A0)
	b.Addi(isa.T2, isa.T2, 1)
	b.ScWait(isa.T3, isa.T2, isa.A0)
	b.Beqz(isa.T3, "ok")
	b.Pause(isa.T4)
	b.J("retry")
	b.Label("ok")
	b.Mark()
	b.Addi(isa.T0, isa.T0, -1)
	b.Bnez(isa.T0, "retry")
	b.Halt()
	return b.MustBuild()
}

func TestAmoAddAtomicity(t *testing.T) {
	const iters = 20
	sys := New(SmallConfig(PolicyPlain), SameProgram(amoAddLoop(0, iters)))
	n := sys.Cfg.Topo.NumCores()
	if !sys.RunUntilHalted(200000) {
		t.Fatal("cores did not halt")
	}
	want := uint32(n * iters)
	if got := sys.ReadWord(0); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	a := sys.Snapshot()
	if a.TotalOps != uint64(n*iters) {
		t.Errorf("ops = %d, want %d", a.TotalOps, n*iters)
	}
}

func TestLRSCAtomicityUnderContention(t *testing.T) {
	const iters = 10
	sys := New(SmallConfig(PolicyLRSCSingle), SameProgram(lrscLoop(0, iters, 16)))
	n := sys.Cfg.Topo.NumCores()
	if !sys.RunUntilHalted(2000000) {
		t.Fatal("cores did not halt (livelock?)")
	}
	want := uint32(n * iters)
	if got := sys.ReadWord(0); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	st := sys.PolicyStats()
	if st.SCSuccess != uint64(n*iters) {
		t.Errorf("SC successes = %d, want %d", st.SCSuccess, n*iters)
	}
	if st.SCFail == 0 {
		t.Error("contended LRSC saw zero failures — displacement not modeled?")
	}
}

func TestLRSCWaitIdealAtomicity(t *testing.T) {
	const iters = 10
	sys := New(SmallConfig(PolicyWaitQueue), SameProgram(lrscWaitLoop(0, iters, 16)))
	n := sys.Cfg.Topo.NumCores()
	if !sys.RunUntilHalted(2000000) {
		t.Fatal("cores did not halt")
	}
	if got := sys.ReadWord(0); got != uint32(n*iters) {
		t.Errorf("counter = %d, want %d", got, n*iters)
	}
	// Ideal queue: every SCwait succeeds (no interfering plain stores).
	a := sys.Snapshot()
	if a.SCFail != 0 {
		t.Errorf("ideal LRSCwait had %d SC failures", a.SCFail)
	}
	if a.WaitRefusals != 0 {
		t.Errorf("ideal LRSCwait refused %d reservations", a.WaitRefusals)
	}
}

func TestColibriAtomicityUnderContention(t *testing.T) {
	const iters = 10
	sys := New(SmallConfig(PolicyColibri), SameProgram(lrscWaitLoop(0, iters, 16)))
	n := sys.Cfg.Topo.NumCores()
	if !sys.RunUntilHalted(2000000) {
		t.Fatal("cores did not halt")
	}
	if got := sys.ReadWord(0); got != uint32(n*iters) {
		t.Errorf("counter = %d, want %d", got, n*iters)
	}
	a := sys.Snapshot()
	if a.SCFail != 0 {
		t.Errorf("colibri had %d SC failures without interference", a.SCFail)
	}
	// Contention on one address: waiters must actually sleep.
	if a.SleepCycles == 0 {
		t.Error("no sleep cycles recorded under contention")
	}
	// Every enqueue behind a tail produces exactly one SuccessorUpdate,
	// which eventually produces exactly one WakeUpRequest.
	if a.SuccUpdates != a.WakeUps {
		t.Errorf("protocol imbalance: %d SuccessorUpdates vs %d WakeUps",
			a.SuccUpdates, a.WakeUps)
	}
	if !sys.Quiescent() {
		t.Error("system not quiescent after halt")
	}
}

func TestColibriStarvationFreedom(t *testing.T) {
	// Under full contention every core must finish — and with in-order
	// service, per-core completion counts in any window stay balanced.
	const iters = 30
	sys := New(SmallConfig(PolicyColibri), SameProgram(lrscWaitLoop(0, iters, 16)))
	if !sys.RunUntilHalted(3000000) {
		t.Fatal("cores did not halt")
	}
	a := sys.Snapshot()
	min, max := a.MinMaxOps()
	if min != uint64(iters) || max != uint64(iters) {
		t.Errorf("per-core ops range [%d, %d], want exactly %d", min, max, iters)
	}
}

func TestMwaitProducerConsumer(t *testing.T) {
	// Core 0 produces: writes 7 to the flag after some delay. All other
	// cores consume: Mwait on the flag (expected 0), then store the
	// observed value to a private result slot.
	const flagAddr = 0
	resultBase := uint32(4)

	producer := func() *isa.Program {
		b := isa.NewBuilder()
		b.Li(isa.T0, 300)
		b.Pause(isa.T0) // let consumers enqueue
		b.Li(isa.A0, flagAddr)
		b.Li(isa.T1, 7)
		b.Sw(isa.T1, isa.A0, 0)
		b.Halt()
		return b.MustBuild()
	}()
	consumer := func() *isa.Program {
		b := isa.NewBuilder()
		b.Li(isa.A0, flagAddr)
		b.Label("wait")
		b.MWait(isa.T0, isa.Zero, isa.A0) // expected 0
		b.Beqz(isa.T0, "wait")            // refused (still 0): retry
		// Store the woken value at result[coreID].
		b.CoreID(isa.T1)
		b.Slli(isa.T1, isa.T1, 2)
		b.Li(isa.T2, int32(resultBase))
		b.Add(isa.T1, isa.T1, isa.T2)
		b.Sw(isa.T0, isa.T1, 0)
		b.Halt()
		return b.MustBuild()
	}()

	sys := New(SmallConfig(PolicyColibri), func(core int) *isa.Program {
		if core == 0 {
			return producer
		}
		return consumer
	})
	if !sys.RunUntilHalted(100000) {
		for i, c := range sys.Cores {
			if !c.Halted() {
				t.Logf("core %d stuck at pc %d (%s)", i, c.PC(), sys.Qnodes[i].State())
			}
		}
		t.Fatal("cores did not halt")
	}
	for core := 1; core < sys.Cfg.Topo.NumCores(); core++ {
		addr := resultBase + uint32(core)*4
		if got := sys.ReadWord(addr); got != 7 {
			t.Errorf("core %d woke with %d, want 7", core, got)
		}
	}
	// Consumers slept rather than polled.
	a := sys.Snapshot()
	if a.SleepCycles == 0 {
		t.Error("Mwait consumers recorded no sleep cycles")
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *System {
		return New(SmallConfig(PolicyColibri), SameProgram(lrscWaitLoop(0, 15, 16)))
	}
	s1, s2 := build(), build()
	s1.RunUntilHalted(2000000)
	s2.RunUntilHalted(2000000)
	a1, a2 := s1.Snapshot(), s2.Snapshot()
	if a1.Cycle != a2.Cycle || a1.TotalOps != a2.TotalOps ||
		a1.Flits != a2.Flits || a1.BankAccesses != a2.BankAccesses {
		t.Errorf("identical runs diverged: %+v vs %+v", a1, a2)
	}
	for i := range a1.OpsPerCore {
		if a1.OpsPerCore[i] != a2.OpsPerCore[i] {
			t.Errorf("core %d ops differ: %d vs %d", i, a1.OpsPerCore[i], a2.OpsPerCore[i])
		}
	}
}

func TestMeasureWindow(t *testing.T) {
	// An endless AMO loop measured over a window reports nonzero
	// throughput and plausible fairness.
	endless := func() *isa.Program {
		b := isa.NewBuilder()
		b.Li(isa.A0, 0)
		b.Li(isa.T1, 1)
		b.Label("loop")
		b.AmoAdd(isa.Zero, isa.T1, isa.A0)
		b.Mark()
		b.J("loop")
		return b.MustBuild()
	}()
	sys := New(SmallConfig(PolicyPlain), SameProgram(endless))
	act := sys.Measure(500, 2000)
	if act.Throughput() <= 0 {
		t.Fatal("zero throughput in measurement window")
	}
	min, max := act.MinMaxOps()
	if min == 0 {
		t.Error("a core made no progress in the window")
	}
	// Cores in the hot bank's own tile legitimately win more arbitration
	// rounds (NUMA bias, as in MemPool); starvation is the failure mode.
	if max > 12*min+12 {
		t.Errorf("starvation-level unfairness: min %d max %d", min, max)
	}
	if act.TotalOps != uint64(sys.ReadWord(0)) {
		// ops marked before warmup end are excluded; memory has them all.
		if uint64(sys.ReadWord(0)) < act.TotalOps {
			t.Errorf("memory (%d) < measured ops (%d)", sys.ReadWord(0), act.TotalOps)
		}
	}
}

func TestLayoutAllocator(t *testing.T) {
	l := NewLayout(16)
	a := l.Words(4)
	b := l.Words(2)
	if a != 64 || b != 80 {
		t.Errorf("allocations at %d, %d; want 64, 80", a, b)
	}
	l.AlignWords(8)
	c := l.Words(1)
	if c != 96 {
		t.Errorf("aligned allocation at %d, want 96", c)
	}
	if l.UsedWords() != 25 {
		t.Errorf("used words = %d, want 25", l.UsedWords())
	}
}
