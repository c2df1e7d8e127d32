package patterns

import (
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/locks"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/platform"
	"repro/internal/reserve"
)

// Pattern litmus tests: each kernel runs bounded on a real 16-core
// system across the full policy registry (the five built-ins plus a
// test-only custom policy, so the open registry path is covered too)
// and across every wait kind, then the final memory state is checked
// against the pattern's safety property — no core passes a barrier
// round early, no reader observes a torn RCU version, the combining
// lock preserves mutual exclusion and FIFO service.

// testPolicy is a custom policy registered only in this test binary (a
// reservation-table wrapper), covering hardware that joined through
// RegisterPolicy rather than the built-in table.
type testPolicy struct{}

func (testPolicy) Name() string { return "patterns-custom" }

func (p testPolicy) Normalize(platform.PolicyParams, noc.Topology) (platform.Policy, error) {
	return p, nil
}

func (testPolicy) NewAdapter(b platform.BankContext) mem.Adapter {
	return reserve.NewTable(b.NumCores)
}

var registerTestPolicy = sync.OnceFunc(func() {
	platform.MustRegisterPolicy(testPolicy{})
})

// forEachPolicyWait runs the body as one subtest per (registered policy
// × wait kind) pair.
func forEachPolicyWait(t *testing.T, body func(t *testing.T, pol experiments.Policy, w locks.WaitKind)) {
	t.Helper()
	registerTestPolicy()
	for _, name := range platform.PolicyNames() {
		for _, w := range locks.WaitKinds() {
			t.Run(name+"/"+w.String(), func(t *testing.T) {
				body(t, experiments.PaperPolicy(platform.PolicyKind(name)), w)
			})
		}
	}
}

func TestBarrierLitmus(t *testing.T) {
	topo := noc.Small()
	const nActive, rounds = 8, 4
	forEachPolicyWait(t, func(t *testing.T, pol experiments.Policy, w locks.WaitKind) {
		for _, v := range BarrierVariants() {
			t.Run(v.String(), func(t *testing.T) {
				l := platform.NewLayout(0)
				lay := NewBarrierLayout(l, nActive)
				prog := BarrierProgram(v, w, lay, pol.Backoff, rounds, true)
				sys := newSystem(pol.Config(topo), prog, nActive)
				if !sys.RunUntilHalted(2_000_000) {
					t.Fatal("barrier kernel did not halt")
				}
				if e := sys.ReadWord(lay.Err); e != 0 {
					t.Errorf("early barrier pass detected (err word = %d)", e)
				}
				for i := 0; i < nActive; i++ {
					if got := sys.Cores[i].Stats.Ops; got != rounds {
						t.Errorf("core %d crossed %d rounds, want %d", i, got, rounds)
					}
					if got := sys.ReadWord(lay.Slots + uint32(4*i)); got != rounds-1 {
						t.Errorf("core %d final progress slot = %d, want %d", i, got, rounds-1)
					}
				}
			})
		}
	})
}

func TestRCULitmus(t *testing.T) {
	topo := noc.Small()
	const nActive, syncs = 5, 6
	forEachPolicyWait(t, func(t *testing.T, pol experiments.Policy, w locks.WaitKind) {
		l := platform.NewLayout(0)
		lay := NewRCULayout(l)
		writer := RCUWriterProgram(w, lay, pol.Backoff, syncs)
		reader := RCUReaderProgram(lay, true)
		idle := isa.HaltProgram()
		sys := platform.New(pol.Config(topo), func(core int) *isa.Program {
			switch {
			case core == 0:
				return writer
			case core < nActive:
				return reader
			}
			return idle
		})
		InitRCU(sys, lay)
		if !sys.RunUntilHalted(2_000_000) {
			t.Fatal("RCU kernel did not halt")
		}
		if e := sys.ReadWord(lay.Err); e != 0 {
			t.Error("a reader observed a torn (reclaimed) RCU version")
		}
		if got := sys.Cores[0].Stats.Ops; got != syncs {
			t.Errorf("writer completed %d syncs, want %d", got, syncs)
		}
		for i := 1; i < nActive; i++ {
			if sys.Cores[i].Stats.Ops == 0 {
				t.Errorf("reader %d made no progress", i)
			}
		}
		// Every reader deregistered before halting.
		if c0, c1 := sys.ReadWord(lay.Cnt), sys.ReadWord(lay.Cnt+4); c0 != 0 || c1 != 0 {
			t.Errorf("reader counters not drained at halt: [%d %d]", c0, c1)
		}
	})
}

func TestCombLockLitmus(t *testing.T) {
	topo := noc.Small()
	// A serve bound below the core count forces combiner handover.
	const nActive, iters, maxCombine = 6, 8, 3
	forEachPolicyWait(t, func(t *testing.T, pol experiments.Policy, w locks.WaitKind) {
		l := platform.NewLayout(0)
		lay := NewCombLayout(l, nActive)
		prog := CombLockProgram(w, lay, maxCombine, pol.Backoff, iters)
		sys := newSystem(pol.Config(topo), prog, nActive)
		InitCombLock(sys, lay)
		if !sys.RunUntilHalted(2_000_000) {
			t.Fatal("combining-lock kernel did not halt")
		}
		if e := sys.ReadWord(lay.Err); e != 0 {
			t.Error("combiner overlap or FIFO violation (err word set)")
		}
		const total = nActive * iters
		// Mutual exclusion: the counter is incremented non-atomically, so
		// overlapping combiners would lose updates.
		if got := sys.ReadWord(lay.Counter); got != total {
			t.Errorf("counter = %d, want %d (lost updates => combiners overlapped)", got, total)
		}
		// FIFO + uniqueness: the receipts handed out must be exactly
		// 1..total, so the per-core sums add up to total*(total+1)/2.
		var sum uint32
		for i := 0; i < nActive; i++ {
			sum += sys.ReadWord(lay.Sums + uint32(4*i))
		}
		if want := uint32(total * (total + 1) / 2); sum != want {
			t.Errorf("receipt sum = %d, want %d (duplicate or skipped service)", sum, want)
		}
		for i := 0; i < nActive; i++ {
			if got := sys.Cores[i].Stats.Ops; got != iters {
				t.Errorf("core %d completed %d ops, want %d", i, got, iters)
			}
		}
	})
}
