package kernels

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/platform"
)

func runMSQueue(t *testing.T, wait bool, policy platform.PolicyKind, iters int) *platform.System {
	t.Helper()
	cfg := platform.SmallConfig(policy)
	n := cfg.Topo.NumCores()
	l := platform.NewLayout(0)
	lay := NewMSLayout(l, n, 4)
	sys := platform.New(cfg, MSQueueProgram(wait, lay, 64, iters))
	InitMSQueue(sys, lay)
	if !sys.RunUntilHalted(20000000) {
		for i, c := range sys.Cores {
			if !c.Halted() {
				t.Logf("core %d at pc %d, qnode %s", i, c.PC(), sys.Qnodes[i].State())
			}
		}
		t.Fatalf("MS queue (wait=%v, %v) did not finish", wait, policy)
	}
	if err := CheckMSQueue(sys, lay, iters); err != nil {
		t.Errorf("MS queue (wait=%v, %v): %v", wait, policy, err)
	}
	a := sys.Snapshot()
	if a.TotalOps != uint64(2*n*iters) {
		t.Errorf("ops = %d, want %d", a.TotalOps, 2*n*iters)
	}
	return sys
}

func TestMSQueueLRSC(t *testing.T) {
	runMSQueue(t, false, platform.PolicyLRSCSingle, 10)
}

func TestMSQueueLRSCWaitColibri(t *testing.T) {
	runMSQueue(t, true, platform.PolicyColibri, 10)
}

func TestMSQueueLRSCWaitIdeal(t *testing.T) {
	runMSQueue(t, true, platform.PolicyWaitQueue, 10)
}

func TestMSQueueSingleCore(t *testing.T) {
	// One active core exercises the sequential paths (including helping
	// its own lagging tail).
	cfg := platform.SmallConfig(platform.PolicyColibri)
	l := platform.NewLayout(0)
	lay := NewMSLayout(l, cfg.Topo.NumCores(), 4)
	active := MSQueueProgram(true, lay, 64, 20)
	idle := isa.HaltProgram()
	sys := platform.New(cfg, func(core int) *isa.Program {
		if core == 0 {
			return active(0)
		}
		return idle
	})
	InitMSQueue(sys, lay)
	if !sys.RunUntilHalted(2000000) {
		t.Fatal("single-core MS queue did not finish")
	}
	if got := sys.ReadWord(lay.Results + 4); got != 20 {
		t.Errorf("dequeue count = %d, want 20", got)
	}
	// All dequeued values are the core's own tag.
	if got := sys.ReadWord(lay.Results); got != 20*enqValue(0) {
		t.Errorf("dequeue sum = %d, want %d", got, 20*enqValue(0))
	}
}

func TestMSLayoutDisjoint(t *testing.T) {
	l := platform.NewLayout(0)
	lay := NewMSLayout(l, 4, 3)
	// Node addresses are nonzero and distinct.
	seen := map[uint32]bool{}
	for i := 0; i < 1+4*3; i++ {
		a := lay.nodeAddr(i)
		if a == 0 && i > 0 {
			t.Fatal("node at address 0 (conflicts with null)")
		}
		if seen[a] {
			t.Fatalf("node %d address collision", i)
		}
		seen[a] = true
	}
}
