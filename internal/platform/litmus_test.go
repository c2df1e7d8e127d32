package platform

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/reserve"
)

// Memory-ordering litmus tests. The cores are in-order with blocking,
// acknowledged memory operations, so the system is sequentially
// consistent; these tests pin that property down because the kernels
// (MCS lock handoff, producer/consumer, queue slot publication) rely on
// it. Each test runs the classic two-core pattern many times with
// different relative timing offsets — table-driven over the policy
// registry, because sequential consistency is a platform property no
// reservation policy (built-in or custom) may break.

// litmusPolicy is a custom policy registered only in this test binary:
// a thin wrapper around the reservation table, so the litmus suite also
// covers hardware that entered the platform through the open
// RegisterPolicy path rather than the built-in table.
type litmusPolicy struct{}

func (litmusPolicy) Name() string { return "custom-litmus" }

func (p litmusPolicy) Normalize(PolicyParams, noc.Topology) (Policy, error) { return p, nil }

func (litmusPolicy) NewAdapter(b BankContext) mem.Adapter {
	return reserve.NewTable(b.NumCores)
}

// registerLitmusPolicy tolerates repeated in-process test runs
// (go test -count=2): the registry is process-global with no
// unregister.
var registerLitmusPolicy = sync.OnceFunc(func() {
	MustRegisterPolicy(litmusPolicy{})
})

// forEachPolicy runs the litmus body as one subtest per registered
// policy — every built-in plus the test-only custom one.
func forEachPolicy(t *testing.T, body func(t *testing.T, policy PolicyKind)) {
	t.Helper()
	registerLitmusPolicy()
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			body(t, PolicyKind(name))
		})
	}
}

// mpProducer: data = 42; flag = 1. Offset delays the start.
func mpProducer(dataAddr, flagAddr uint32, offset int32) *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.T0, offset)
	b.Pause(isa.T0)
	b.Li(isa.A0, int32(dataAddr))
	b.Li(isa.A1, int32(flagAddr))
	b.Li(isa.T1, 42)
	b.Sw(isa.T1, isa.A0, 0)
	b.Li(isa.T2, 1)
	b.Sw(isa.T2, isa.A1, 0)
	b.Halt()
	return b.MustBuild()
}

// mpConsumer: spin on flag, then read data into result.
func mpConsumer(dataAddr, flagAddr, resultAddr uint32) *isa.Program {
	b := isa.NewBuilder()
	b.Li(isa.A0, int32(dataAddr))
	b.Li(isa.A1, int32(flagAddr))
	b.Label("spin")
	b.Lw(isa.T0, isa.A1, 0)
	b.Beqz(isa.T0, "spin")
	b.Lw(isa.T1, isa.A0, 0)
	b.Li(isa.T2, int32(resultAddr))
	b.Sw(isa.T1, isa.T2, 0)
	b.Halt()
	return b.MustBuild()
}

// TestLitmusMessagePassing: the consumer must never observe flag=1 with
// stale data, even when data and flag live in different banks (and thus
// travel independent network paths). Acked stores give this; posted
// stores would not.
func TestLitmusMessagePassing(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, policy PolicyKind) {
		topo := noc.Small()
		nBanks := uint32(topo.NumBanks())
		for offset := int32(0); offset < 24; offset++ {
			// data and flag in maximally distant banks.
			dataAddr := uint32(0)
			flagAddr := 4 * (nBanks - 1)
			resultAddr := uint32(8)
			prod := mpProducer(dataAddr, flagAddr, offset)
			cons := mpConsumer(dataAddr, flagAddr, resultAddr)
			idle := func() *isa.Program { b := isa.NewBuilder(); b.Halt(); return b.MustBuild() }()
			sys := New(SmallConfig(policy), func(core int) *isa.Program {
				switch core {
				case 0:
					return prod
				case topo.NumCores() - 1:
					return cons
				default:
					return idle
				}
			})
			if !sys.RunUntilHalted(100000) {
				t.Fatalf("offset %d: did not halt", offset)
			}
			if got := sys.ReadWord(resultAddr); got != 42 {
				t.Fatalf("offset %d: consumer saw data=%d after flag (store reordering!)", offset, got)
			}
		}
	})
}

// TestLitmusStoreBuffering: the classic SB pattern (x=1; r1=y || y=1;
// r2=x) must never end with r1==r2==0 on a sequentially consistent
// system.
func TestLitmusStoreBuffering(t *testing.T) {
	writerReader := func(wAddr, rAddr, resAddr uint32, offset int32) *isa.Program {
		b := isa.NewBuilder()
		b.Li(isa.T0, offset)
		b.Pause(isa.T0)
		b.Li(isa.A0, int32(wAddr))
		b.Li(isa.A1, int32(rAddr))
		b.Li(isa.T1, 1)
		b.Sw(isa.T1, isa.A0, 0)
		b.Lw(isa.T2, isa.A1, 0)
		b.Li(isa.T3, int32(resAddr))
		b.Sw(isa.T2, isa.T3, 0)
		b.Halt()
		return b.MustBuild()
	}

	forEachPolicy(t, func(t *testing.T, policy PolicyKind) {
		topo := noc.Small()
		xAddr, yAddr := uint32(0), uint32(4*(uint32(topo.NumBanks())-1))
		r1Addr, r2Addr := uint32(8), uint32(12)
		for off0 := int32(0); off0 < 8; off0++ {
			for off1 := int32(0); off1 < 8; off1++ {
				name := fmt.Sprintf("off0=%d off1=%d", off0, off1)
				p0 := writerReader(xAddr, yAddr, r1Addr, off0)
				p1 := writerReader(yAddr, xAddr, r2Addr, off1)
				idle := func() *isa.Program { b := isa.NewBuilder(); b.Halt(); return b.MustBuild() }()
				sys := New(SmallConfig(policy), func(core int) *isa.Program {
					switch core {
					case 0:
						return p0
					case topo.NumCores() - 1:
						return p1
					default:
						return idle
					}
				})
				// Reset the observed words.
				sys.WriteWord(xAddr, 0)
				sys.WriteWord(yAddr, 0)
				if !sys.RunUntilHalted(100000) {
					t.Fatalf("%s: did not halt", name)
				}
				r1, r2 := sys.ReadWord(r1Addr), sys.ReadWord(r2Addr)
				if r1 == 0 && r2 == 0 {
					t.Fatalf("%s: r1=r2=0 — store buffering visible on an SC system", name)
				}
			}
		}
	})
}

// TestLitmusAmoVisibility: an AMO's effect is immediately visible to a
// subsequent load from any core (atomics act as their own fences here,
// whatever reservation adapter fronts the bank).
func TestLitmusAmoVisibility(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, policy PolicyKind) {
		topo := noc.Small()
		addr := uint32(0)
		adder := func() *isa.Program {
			b := isa.NewBuilder()
			b.Li(isa.A0, int32(addr))
			b.Li(isa.T0, 1)
			b.AmoAdd(isa.T1, isa.T0, isa.A0) // t1 = old
			b.Lw(isa.T2, isa.A0, 0)          // must be > old
			b.Bltu(isa.T1, isa.T2, "ok")
			// Record a violation at a per-core slot.
			b.CoreID(isa.T3)
			b.Slli(isa.T3, isa.T3, 2)
			b.Addi(isa.T3, isa.T3, 64)
			b.Li(isa.T4, 1)
			b.Sw(isa.T4, isa.T3, 0)
			b.Label("ok")
			b.Halt()
			return b.MustBuild()
		}()
		sys := New(SmallConfig(policy), SameProgram(adder))
		if !sys.RunUntilHalted(100000) {
			t.Fatal("did not halt")
		}
		for c := 0; c < topo.NumCores(); c++ {
			if sys.ReadWord(uint32(64+4*c)) != 0 {
				t.Errorf("core %d observed a value at or below its own AMO result", c)
			}
		}
		if got := sys.ReadWord(addr); got != uint32(topo.NumCores()) {
			t.Errorf("final counter = %d, want %d", got, topo.NumCores())
		}
	})
}
