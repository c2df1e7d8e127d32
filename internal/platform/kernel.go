package platform

import (
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/noc"
)

// The activity-driven kernel. A System runs on the calling goroutine,
// and each cycle visits only the components that can act in it, in a
// fixed order:
//
//  0. one snapshot each of the dirty routers of both networks, the
//     banks with queued work and the cores with undelivered responses;
//  1. timer wakes, then the runnable core slots (Qnode i then Core i,
//     ascending i);
//  2. the snapshotted routers in ascending index order — tile routers,
//     link arbiters, then group routers — per network;
//  3. the snapshotted banks;
//  4. response delivery to the snapshotted cores;
//
// then the clock advances. The snapshots are taken at the start of the
// cycle because nothing that joins a set during it can act before the
// next one: every FIFO entry becomes visible a cycle after its push,
// the slot phase pops no fabric FIFO (so it wakes no router asleep on
// space), and a router, bank or core missing from the snapshot was
// idle, or asleep on a full output, when the last cycle ended. Its
// visit this cycle would be a no-op. A router dirtied during the cycle
// waits for the next, exactly like a dense pass where a router woken by
// a later-ticking neighbour waits a cycle; that is what keeps the
// scheduled kernel cycle-exact against TickDense.
//
// Inside Run and RunUntilHalted a core also runs ahead (cpu.RunAhead):
// after its instruction of the cycle it executes the private
// instructions that follow, one per simulated cycle up to the run's
// target, and parks on the wake heap until the cycle of its next
// instruction. Private instructions touch nothing another component
// reads, and snapshots are taken between runs, where a core that ran
// ahead sits exactly where the dense loop has it. A direct Tick never
// runs ahead.

// kernel is the scheduling state of a System.
type kernel struct {
	// slots schedules the per-core front end (Qnode i + Core i as one
	// slot); its wake heap carries PAUSE countdown expiries and the next
	// instruction of cores that ran ahead. banks and deliv track banks
	// with queued work and cores with undelivered responses. The
	// scratch slices and dirty hold a cycle's snapshots, reused so that
	// steady-state iteration is allocation-free.
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

// initKernel builds the schedule and sets the BankReq/CoreResp push
// wakes to it. New calls it once, while every core is runnable and
// nothing is in flight.
func (s *System) initKernel() {
	s.slots = engine.NewScheduler(len(s.Cores))
	s.banks = engine.MakeActiveSet(len(s.Banks))
	s.deliv = engine.MakeActiveSet(len(s.Cores))
	for b := range s.Banks {
		s.Fabric.BankReq[b].WakeOnPush(engine.PushWake{Set: &s.banks, ID: b})
	}
	for c := range s.Cores {
		s.Fabric.CoreResp[c].WakeOnPush(engine.PushWake{Set: &s.deliv, ID: c})
		s.slots.Wake(c)
	}
}

// Tick advances the whole system by one cycle, visiting only components
// that can make progress: runnable core slots, dirty routers, banks with
// queued work, cores with undelivered responses. Quiescent components
// are parked with registered wake conditions (FIFO push wakes, response
// delivery, the PAUSE timer heap), and their per-cycle wait counters are
// reconciled lazily, so the observable state evolution — including every
// Snapshot counter — is cycle-exact against TickDense. No core runs
// ahead of the clock.
func (s *System) Tick() { s.tick(s.Clock.Now() + 1) }

// tick is one cycle of the kernel; cores may run ahead through private
// instructions up to, not including, cycle limit.
func (s *System) tick(limit engine.Cycle) {
	k := &s.Kernel
	s.Fabric.SnapshotDirty(&s.dirty)
	s.bankScratch = s.banks.AppendTo(s.bankScratch[:0])
	s.delScratch = s.deliv.AppendTo(s.delScratch[:0])
	k.SlotsTicked += uint64(s.tickSlots(limit))
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

// run executes cycles until decide stops it, letting cores run ahead
// up to the target.
func (s *System) run(n int, untilHalted bool) {
	target := s.Clock.Now() + engine.Cycle(n)
	for s.decide(target, untilHalted) {
		s.tick(target)
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
// returns how many slots it visited. A core that stays Ready runs ahead
// up to limit.
func (s *System) tickSlots(limit engine.Cycle) int {
	// Due wakes (PAUSE expiries, cores that ran ahead) rejoin the
	// schedule first, so the core executes this cycle exactly as under
	// dense ticking.
	s.slots.WakeDue(s.Clock.Now(), func(id int) { s.Cores[id].Unpark() })
	s.slotScratch = s.slots.AppendRunnable(s.slotScratch[:0])
	for _, i := range s.slotScratch {
		q, c := s.Qnodes[i], s.Cores[i]
		q.Tick()
		if !c.Parked() {
			c.Tick()
			if c.Quiescent() {
				s.park(i)
			} else if at := c.RunAhead(limit); at >= 0 {
				s.Kernel.Parks++
				s.slots.WakeAt(i, at)
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

// tickBanks ticks the snapshotted banks and returns how many.
func (s *System) tickBanks() int {
	for _, b := range s.bankScratch {
		bank := s.Banks[b]
		bank.Tick()
		if bank.Idle() {
			s.banks.Remove(b)
		}
	}
	return len(s.bankScratch)
}

// deliver hands each snapshotted core its next response, and returns
// how many cores it visited.
func (s *System) deliver() int {
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
