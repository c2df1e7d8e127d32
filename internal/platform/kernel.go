package platform

import (
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/noc"
)

// The activity-driven kernel. A System runs on the calling goroutine,
// and each cycle visits only the components that can make progress, in
// a fixed order:
//
//  1. timer wakes, then the runnable core slots (Qnode i then Core i,
//     ascending i);
//  2. one snapshot of the dirty routers of both networks;
//  3. the snapshotted routers in ascending index order — tile routers,
//     link arbiters, then group routers — per network;
//  4. banks with queued work;
//  5. response delivery;
//
// then the clock advances. A router dirtied after the snapshot waits a
// cycle, exactly like a dense pass where a router woken by a
// later-ticking neighbour waits a cycle; that is what keeps the
// scheduled kernel cycle-exact against TickDense.

// kernel is the scheduling state of a System.
type kernel struct {
	// slots schedules the per-core front end (Qnode i + Core i as one
	// slot); its wake heap carries PAUSE countdown expiries. banks and
	// deliv track banks with queued work and cores with undelivered
	// responses. Scratch slices make steady-state iteration
	// allocation-free.
	slots *engine.Scheduler
	banks engine.ActiveSet
	deliv engine.ActiveSet

	slotScratch []int
	bankScratch []int
	delScratch  []int
	dirty       noc.Dirty

	// nHalted counts the halted cores, so RunUntilHalted's completion
	// check needs no core walk.
	nHalted int
}

// Partitions returns 1: every System runs on one goroutine. It remains
// only because the benchmark module reports it; delete with the next
// benchmark change (ROADMAP item 8).
func (s *System) Partitions() int { return 1 }

// FusedCycles returns 0: no cycle is fused without a partitioned
// kernel. It remains only because the benchmark module reports it;
// delete with the next benchmark change (ROADMAP item 8).
func (s *System) FusedCycles() uint64 { return 0 }

// initKernel builds the schedule and wires the BankReq/CoreResp wake
// hooks to it. New calls it once, while every core is runnable and
// nothing is in flight.
func (s *System) initKernel() {
	s.slots = engine.NewScheduler(len(s.Cores))
	s.banks = engine.MakeActiveSet(len(s.Banks))
	s.deliv = engine.MakeActiveSet(len(s.Cores))
	for b := range s.Banks {
		s.Fabric.BankReq[b].OnPush(func() { s.banks.Add(b) })
	}
	for c := range s.Cores {
		s.Fabric.CoreResp[c].OnPush(func() { s.deliv.Add(c) })
		s.slots.Wake(c)
	}
}

// Tick advances the whole system by one cycle, visiting only components
// that can make progress: runnable core slots, dirty routers, banks with
// queued work, cores with undelivered responses. Quiescent components
// are parked with registered wake conditions (FIFO push hooks, response
// delivery, the PAUSE timer heap), and their per-cycle wait counters are
// reconciled lazily, so the observable state evolution — including every
// Snapshot counter — is cycle-exact against TickDense.
func (s *System) Tick() {
	k := &s.Kernel
	k.SlotsTicked += uint64(s.tickSlots())
	s.Fabric.SnapshotDirty(&s.dirty)
	k.RoutersTicked += uint64(s.Fabric.TickDirty(&s.dirty))
	k.BanksTicked += uint64(s.tickBanks())
	k.DelivTicked += uint64(s.deliver())
	k.Ticks++
	s.Clock.Advance()
}

// Run advances n cycles, fast-forwarding the clock across globally idle
// spans (all cores asleep in backoff, nothing in flight) — skipped wait
// cycles are reconciled into the cores' counters, so snapshots are
// identical to having simulated every cycle.
func (s *System) Run(n int) { s.run(n, false) }

// RunUntilHalted runs until every core halted or maxCycles elapse; it
// reports whether all cores halted. Like Run it fast-forwards idle
// spans; a deadlocked system (nothing runnable, no timers, cores still
// waiting) skips straight to the cycle budget rather than simulating
// empty cycles.
func (s *System) RunUntilHalted(maxCycles int) bool {
	s.run(maxCycles, true)
	return s.halted()
}

// run executes cycles until decide stops it.
func (s *System) run(n int, untilHalted bool) {
	target := s.Clock.Now() + engine.Cycle(n)
	for s.decide(target, untilHalted) {
		s.Tick()
	}
}

// decide is the run loop's one control step, taken between cycles. It
// reports whether another cycle must execute: not once the target cycle
// is reached or, under untilHalted, every core halted. When nothing can
// move before the next timed wake it first fast-forwards the clock to
// that wake, or to the target (and stops) when no wake comes sooner.
func (s *System) decide(target engine.Cycle, untilHalted bool) bool {
	if s.Clock.Now() >= target || untilHalted && s.halted() {
		return false
	}
	if !s.active() {
		w, ok := s.slots.NextWake()
		if !ok || w >= target {
			s.fastForward(target)
			return false
		}
		s.fastForward(w)
	}
	return true
}

// tickSlots runs the timer wakes and the runnable core slots, and
// returns how many slots it visited.
func (s *System) tickSlots() int {
	// Expired PAUSE countdowns rejoin the schedule first, so the core
	// executes this cycle exactly as under dense ticking.
	s.slots.WakeDue(s.Clock.Now(), func(id int) { s.Cores[id].Unpark() })
	s.slotScratch = s.slots.AppendRunnable(s.slotScratch[:0])
	for _, i := range s.slotScratch {
		q, c := s.Qnodes[i], s.Cores[i]
		q.Tick()
		if !c.Parked() {
			c.Tick()
			if c.Quiescent() {
				s.park(i)
			}
		}
		if c.Parked() && !q.Busy() {
			s.slots.Sleep(i)
		}
	}
	return len(s.slotScratch)
}

// park takes a quiescent core off the schedule, registering its timer
// wake-up when it is counting down a PAUSE.
func (s *System) park(i int) {
	c := s.Cores[i]
	s.Kernel.Parks++
	if c.State() == cpu.Halted {
		s.nHalted++
	}
	if wakeAt := c.Park(); wakeAt >= 0 {
		s.slots.WakeAt(i, wakeAt)
	}
}

// tickBanks ticks the banks with queued work and returns how many.
func (s *System) tickBanks() int {
	s.bankScratch = s.banks.AppendTo(s.bankScratch[:0])
	for _, b := range s.bankScratch {
		bank := s.Banks[b]
		bank.Tick()
		if bank.Idle() {
			s.banks.Remove(b)
		}
	}
	return len(s.bankScratch)
}

// deliver hands each core with an undelivered response its next one,
// and returns how many cores it visited.
func (s *System) deliver() int {
	s.delScratch = s.deliv.AppendTo(s.delScratch[:0])
	for _, i := range s.delScratch {
		if resp, ok := s.Fabric.CoreResp[i].Pop(); ok {
			if out, ok := s.Qnodes[i].Deliver(resp); ok {
				s.Cores[i].Deliver(out) // unparks; executes next cycle
				s.slots.Wake(i)
			}
			if s.Qnodes[i].Busy() {
				s.slots.Wake(i) // protocol traffic to drain (wake-up bounce)
			}
		}
		if s.Fabric.CoreResp[i].Len() == 0 {
			s.deliv.Remove(i)
		}
	}
	return len(s.delScratch)
}

// active reports whether any component can make progress this cycle
// without a timer firing first: a runnable slot, queued bank work, a
// pending delivery or a dirty router. When false, every message has
// drained and every core is parked: the only future events are PAUSE
// expiries.
func (s *System) active() bool {
	return s.slots.AnyRunnable() || !s.banks.Empty() || !s.deliv.Empty() || s.Fabric.Busy()
}

// halted reports whether every core has halted.
func (s *System) halted() bool { return s.nHalted == len(s.Cores) }

// fastForward jumps the clock to cycle at, accounting the skipped span.
func (s *System) fastForward(at engine.Cycle) {
	if saved := at - s.Clock.Now(); saved > 0 {
		s.Kernel.FFSpans++
		s.Kernel.FFCyclesSaved += uint64(saved)
	}
	s.Clock.AdvanceTo(at)
}
