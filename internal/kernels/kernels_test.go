package kernels

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/platform"
)

// runHistogram executes a finite histogram workload and checks the
// atomicity invariant: sum of bins == cores × iterations.
func runHistogram(t *testing.T, v HistVariant, policy platform.PolicyKind, numBins, iters int, maxCycles int) *platform.System {
	t.Helper()
	cfg := platform.SmallConfig(policy)
	l := platform.NewLayout(0)
	lay := NewHistLayout(l, numBins, cfg.Topo.NumCores())
	prog := HistogramProgram(v, lay, 16, iters)
	sys := platform.New(cfg, platform.SameProgram(prog))
	if !sys.RunUntilHalted(maxCycles) {
		for i, c := range sys.Cores {
			if !c.Halted() {
				t.Logf("core %d at pc %d, qnode %s", i, c.PC(), sys.Qnodes[i].State())
			}
		}
		t.Fatalf("%v/%v: cores did not halt", v, policy)
	}
	n := cfg.Topo.NumCores()
	want := uint64(n * iters)
	if got := HistogramSum(sys, lay); got != want {
		t.Errorf("%v/%v: bins sum = %d, want %d (lost or duplicated updates)",
			v, policy, got, want)
	}
	a := sys.Snapshot()
	if a.TotalOps != want {
		t.Errorf("%v/%v: marked ops = %d, want %d", v, policy, a.TotalOps, want)
	}
	return sys
}

func TestHistogramAmoAdd(t *testing.T) {
	runHistogram(t, HistAmoAdd, platform.PolicyPlain, 4, 25, 300000)
}

func TestHistogramLRSCHighContention(t *testing.T) {
	sys := runHistogram(t, HistLRSC, platform.PolicyLRSCSingle, 1, 15, 3000000)
	a := sys.Snapshot()
	if a.SCFail == 0 {
		t.Error("single-bin LRSC histogram saw no SC failures")
	}
}

func TestHistogramLRSCLowContention(t *testing.T) {
	runHistogram(t, HistLRSC, platform.PolicyLRSCSingle, 64, 20, 3000000)
}

func TestHistogramLRSCWaitIdeal(t *testing.T) {
	sys := runHistogram(t, HistLRSCWait, platform.PolicyWaitQueue, 1, 15, 3000000)
	a := sys.Snapshot()
	if a.SCFail != 0 || a.WaitRefusals != 0 {
		t.Errorf("ideal queue: scFail=%d refusals=%d, want 0/0", a.SCFail, a.WaitRefusals)
	}
}

func TestHistogramLRSCWaitTinyQueue(t *testing.T) {
	// One reservation slot per bank: contention beyond it must degrade to
	// refusals + retries but never lose updates.
	cfg := platform.SmallConfig(platform.PolicyWaitQueue)
	cfg.PolicyParams = platform.PolicyParams{QueueCap: 1}
	l := platform.NewLayout(0)
	lay := NewHistLayout(l, 1, cfg.Topo.NumCores())
	sys := platform.New(cfg, platform.SameProgram(HistogramProgram(HistLRSCWait, lay, 16, 10)))
	if !sys.RunUntilHalted(5000000) {
		t.Fatal("cores did not halt")
	}
	n := cfg.Topo.NumCores()
	if got := HistogramSum(sys, lay); got != uint64(n*10) {
		t.Errorf("bins sum = %d, want %d", got, n*10)
	}
	if sys.Snapshot().WaitRefusals == 0 {
		t.Error("q=1 under contention produced no refusals")
	}
}

func TestHistogramColibri(t *testing.T) {
	sys := runHistogram(t, HistLRSCWait, platform.PolicyColibri, 1, 15, 3000000)
	a := sys.Snapshot()
	if a.SCFail != 0 {
		t.Errorf("colibri histogram: %d SC failures without interference", a.SCFail)
	}
	if a.SleepCycles == 0 {
		t.Error("colibri waiters never slept")
	}
}

func TestHistogramColibriManyBins(t *testing.T) {
	runHistogram(t, HistLRSCWait, platform.PolicyColibri, 64, 20, 3000000)
}

func TestHistogramLockLRSC(t *testing.T) {
	runHistogram(t, HistLockLRSC, platform.PolicyLRSCSingle, 2, 10, 5000000)
}

func TestHistogramLockLRSCWait(t *testing.T) {
	runHistogram(t, HistLockLRSCWait, platform.PolicyColibri, 2, 10, 5000000)
}

func TestHistogramLockTicket(t *testing.T) {
	runHistogram(t, HistLockTicket, platform.PolicyLRSCSingle, 2, 10, 5000000)
}

func TestHistogramLockMCSMwait(t *testing.T) {
	sys := runHistogram(t, HistLockMCSMwait, platform.PolicyColibri, 2, 10, 5000000)
	if sys.Snapshot().SleepCycles == 0 {
		t.Error("MCS+Mwait waiters never slept")
	}
}

func TestHistogramEndlessMeasure(t *testing.T) {
	cfg := platform.SmallConfig(platform.PolicyColibri)
	l := platform.NewLayout(0)
	lay := NewHistLayout(l, 4, cfg.Topo.NumCores())
	sys := platform.New(cfg, platform.SameProgram(HistogramProgram(HistLRSCWait, lay, 128, 0)))
	act := sys.Measure(2000, 5000)
	if act.Throughput() <= 0 {
		t.Fatal("no throughput in endless mode")
	}
	// Memory total matches all marks ever made (warmup included).
	if HistogramSum(sys, lay) < act.TotalOps {
		t.Error("bins sum below measured ops")
	}
}

func TestMatmulCorrectness(t *testing.T) {
	cfg := platform.SmallConfig(platform.PolicyPlain)
	l := platform.NewLayout(0)
	lay := NewMatmulLayout(l, 12)
	workers := 4
	idle := func() *isa.Program {
		b := isa.NewBuilder()
		b.Halt()
		return b.MustBuild()
	}()
	sys := platform.New(cfg, func(core int) *isa.Program {
		if core < workers {
			return MatmulProgram(lay, core, workers, false)
		}
		return idle
	})
	InitMatmul(sys, lay)
	if !sys.RunUntilHalted(3000000) {
		t.Fatal("matmul did not finish")
	}
	if err := CheckMatmul(sys, lay); err != nil {
		t.Fatal(err)
	}
	a := sys.Snapshot()
	if a.TotalOps != uint64(lay.N*lay.N) {
		t.Errorf("marked elements = %d, want %d", a.TotalOps, lay.N*lay.N)
	}
}

func TestMatmulUnevenRows(t *testing.T) {
	// 5 rows across 3 workers: distribution must still cover everything.
	cfg := platform.SmallConfig(platform.PolicyPlain)
	l := platform.NewLayout(0)
	lay := NewMatmulLayout(l, 5)
	idle := func() *isa.Program { b := isa.NewBuilder(); b.Halt(); return b.MustBuild() }()
	sys := platform.New(cfg, func(core int) *isa.Program {
		if core < 3 {
			return MatmulProgram(lay, core, 3, false)
		}
		return idle
	})
	InitMatmul(sys, lay)
	if !sys.RunUntilHalted(2000000) {
		t.Fatal("matmul did not finish")
	}
	if err := CheckMatmul(sys, lay); err != nil {
		t.Fatal(err)
	}
}

func runQueue(t *testing.T, v QueueVariant, policy platform.PolicyKind, iters int) *platform.System {
	t.Helper()
	cfg := platform.SmallConfig(policy)
	n := cfg.Topo.NumCores()
	l := platform.NewLayout(0)
	lay := NewQueueLayout(l, n, 2*n)
	sys := platform.New(cfg, QueueProgram(v, lay, 16, iters))
	InitQueue(sys, lay)
	if !sys.RunUntilHalted(8000000) {
		for i, c := range sys.Cores {
			if !c.Halted() {
				t.Logf("core %d at pc %d", i, c.PC())
			}
		}
		t.Fatalf("%v: queue workers did not halt", v)
	}
	if err := CheckQueue(sys, lay, iters); err != nil {
		t.Errorf("%v: %v", v, err)
	}
	a := sys.Snapshot()
	if a.TotalOps != uint64(2*n*iters) {
		t.Errorf("%v: ops = %d, want %d", v, a.TotalOps, 2*n*iters)
	}
	return sys
}

func TestQueueLRSC(t *testing.T)     { runQueue(t, QueueLRSC, platform.PolicyLRSCSingle, 12) }
func TestQueueLRSCWait(t *testing.T) { runQueue(t, QueueLRSCWait, platform.PolicyColibri, 12) }
func TestQueueLockTicket(t *testing.T) {
	runQueue(t, QueueLockTicket, platform.PolicyLRSCSingle, 12)
}

func TestQueueLRSCWaitIdealPolicy(t *testing.T) {
	runQueue(t, QueueLRSCWait, platform.PolicyWaitQueue, 12)
}
