package platform

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/noc"
)

// The activity-driven kernel. The tiles — with their cores, Qnodes and
// banks — are split into P contiguous partitions (P=1 is the plain
// sequential kernel), and every partition runs the same four steps of a
// cycle on its own shard:
//
//	step A  timer wakes + core-slot ticks (Qnode i then Core i, ascending
//	        i), then a snapshot of the partition's dirty routers — all
//	        writes partition-local except tile-router wakes, which are
//	        atomic bit-sets
//	step B  tile routers (fabric class 0) — may push cross-partition
//	        into link-arbiter FIFOs (each has exactly one producer tile)
//	step C  link arbiters (class 1) — push onto group-router links; a
//	        pop of tile egress may wake a sleeping tile router of
//	        another partition (atomic bit-sets, see noc.Fabric)
//	step D  group routers (class 2), banks with queued work, response
//	        delivery — mutually disjoint FIFO sets, all partition-local
//	        but for the atomic wakes: group routers popping a link may
//	        wake its sleeping arbiter
//	end     fold the per-partition counts into Kernel, advance the
//	        clock, decide (continue / fast-forward / stop)
//
// At P=1 the steps run back to back on the calling goroutine. At P>1
// Run and RunUntilHalted run each partition on its own goroutine with a
// phase barrier between consecutive steps, and the barrier's last
// arriver runs the end step while every partition is quiesced; Tick
// runs the partitions in lockstep on the calling goroutine. Because
// every pair of components that share a FIFO is separated by a step
// boundary (or partition-local), the state evolution is the same for
// any partition count — the parity suite checks this per cycle across
// the policy registry, against P=1 and against the dense TickDense.

// kernel is the scheduling state of a System.
type kernel struct {
	// parts are the partitions, in tile order; at least one.
	parts []*partition
	// barrier synchronizes the partitions' goroutines; nil at P=1.
	barrier *engine.Barrier
	// fused marks the next cycle as a single-barrier fused cycle (see
	// cycle). Written only by the cycle leader inside a barrier action or
	// with no workers running, read by workers after the barrier
	// releases them. Always false at P=1.
	fused bool
	// fusedCycles counts executed fused cycles. It lives here and not in
	// KernelStats because it describes the host-side execution strategy,
	// not the simulated machine: KernelStats must stay bit-identical
	// across partition counts.
	fusedCycles uint64
	// target, untilHalted and stop are the current run's control state,
	// read and written by decide.
	target      engine.Cycle
	untilHalted bool
	stop        bool
}

// partition is one shard of the simulated system: a contiguous tile
// range with its cores/Qnodes/banks, its own scheduler and active sets
// (all their producers are partition-local), scratch, and its share of
// the kernel counters.
type partition struct {
	id           int
	core0, core1 int // global core IDs [core0, core1)
	bank0, bank1 int // global bank IDs [bank0, bank1)

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
	fsc         noc.PartScratch

	// stats is this partition's cumulative share of the kernel counters
	// (Ticks and the FF fields stay zero: whole-system events are
	// counted once, on System.Kernel). Published per partition by
	// PublishObs when P>1.
	stats KernelStats
	// nHalted counts the partition's halted cores, so RunUntilHalted's
	// completion check needs no core walk.
	nHalted int

	// Per-cycle ticked counts, folded into System.Kernel by endCycle.
	cSlots, cRouters, cBanks, cDeliv, cParks int
}

// Partitions returns the effective partition count of this system's
// kernel.
func (s *System) Partitions() int { return len(s.parts) }

// FusedCycles returns how many cycles the kernel executed in
// single-barrier fused mode (always 0 at one partition). Purely a
// host-side execution statistic; simulated results are unaffected.
func (s *System) FusedCycles() uint64 { return s.fusedCycles }

// partition splits the tiles into nParts contiguous partitions and
// wires the BankReq/CoreResp wake hooks to the owning partition's sets.
// Cores and banks follow their tile, so every same-tile data path
// (core→tile router→bank and back) stays inside one partition. New
// calls it once, while every core is runnable and nothing is in flight;
// the count never changes afterwards.
func (s *System) partition(nParts int) {
	topo := s.Cfg.Topo
	nTiles := topo.NumTiles()
	cpt, bpt := topo.CoresPerTile, topo.BanksPerTile
	tilePart := make([]int, nTiles)
	s.parts = make([]*partition, nParts)
	for pi := range s.parts {
		t0, t1 := pi*nTiles/nParts, (pi+1)*nTiles/nParts
		p := &partition{
			id:    pi,
			core0: t0 * cpt, core1: t1 * cpt,
			bank0: t0 * bpt, bank1: t1 * bpt,
			slots: engine.NewScheduler(len(s.Cores)),
			banks: engine.MakeActiveSet(len(s.Banks)),
			deliv: engine.MakeActiveSet(len(s.Cores)),
		}
		for t := t0; t < t1; t++ {
			tilePart[t] = pi
		}
		for b := p.bank0; b < p.bank1; b++ {
			s.Fabric.BankReq[b].OnPush(func() { p.banks.Add(b) })
		}
		for c := p.core0; c < p.core1; c++ {
			s.Fabric.CoreResp[c].OnPush(func() { p.deliv.Add(c) })
			p.slots.Wake(c)
		}
		s.parts[pi] = p
	}
	s.Fabric.Shard(nParts, func(t int) int { return tilePart[t] })
	if nParts > 1 {
		s.barrier = engine.NewBarrier(nParts)
	}
	s.lastPubParts = make([]KernelStats, nParts)
}

// Tick advances the whole system by one cycle, visiting only components
// that can make progress: runnable core slots, dirty routers, banks with
// queued work, cores with undelivered responses. Quiescent components
// are parked with registered wake conditions (FIFO push hooks, response
// delivery, the PAUSE timer heap), and their per-cycle wait counters are
// reconciled lazily, so the observable state evolution — including every
// Snapshot counter — is cycle-exact against TickDense. On a partitioned
// system the partitions step in lockstep on the calling goroutine.
func (s *System) Tick() {
	if s.barrier == nil {
		s.cycle(s.parts[0])
	} else {
		for _, p := range s.parts {
			s.stepA(p)
		}
		for _, p := range s.parts {
			p.cRouters = s.Fabric.TickShardClass(&p.fsc, noc.ClassTile)
		}
		for _, p := range s.parts {
			p.cRouters += s.Fabric.TickShardClass(&p.fsc, noc.ClassLink)
		}
		for _, p := range s.parts {
			s.stepD(p)
		}
	}
	s.endCycle()
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

// run executes cycles until decide stops it: at P=1 it calls the
// cycle's steps directly, at P>1 it hands the run to the partition
// goroutines.
func (s *System) run(n int, untilHalted bool) {
	s.target, s.untilHalted = s.Clock.Now()+engine.Cycle(n), untilHalted
	if s.barrier != nil {
		if s.decide() {
			s.drive()
		}
		return
	}
	for s.decide() {
		s.cycle(s.parts[0])
		s.endCycle()
	}
}

// decide is the run loops' one control step, taken between cycles with
// every partition quiesced. It reports whether another cycle must
// execute: not once the target cycle is reached or, under
// RunUntilHalted, every core halted. When nothing can move before the
// next timed wake it first fast-forwards the clock to that wake, or to
// the target (and stops) when no wake comes sooner.
func (s *System) decide() bool {
	if s.Clock.Now() >= s.target || s.untilHalted && s.halted() {
		return false
	}
	if !s.active() {
		w, ok := s.nextWake()
		if !ok || w >= s.target {
			s.fastForward(s.target)
			return false
		}
		s.fastForward(w)
	}
	return true
}

// drive runs cycles — partition 0 on the calling goroutine, one
// goroutine per further partition — until the leader's decide step stops
// the run. The caller has already decided to run the first cycle.
// Workers live for one drive call, so a Run spawns its partitions once,
// not per cycle.
func (s *System) drive() {
	s.stop = false
	s.fused = s.Fabric.QuietCrossTile()
	var wg sync.WaitGroup
	for _, p := range s.parts[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(p)
		}()
	}
	s.work(s.parts[0])
	wg.Wait()
}

// work runs one partition's side of successive cycles until the
// leader stops the run.
func (s *System) work(p *partition) {
	for !s.stop {
		s.cycle(p)
		s.barrier.Wait(s.leaderStep)
	}
}

// leaderStep is the end-of-cycle barrier action: close the cycle,
// decide the next, and — with every partition quiesced — whether it can
// fuse its four barriers into one.
func (s *System) leaderStep() {
	if s.fused {
		s.fusedCycles++
	}
	s.endCycle()
	s.stop = !s.decide()
	s.fused = s.Fabric.QuietCrossTile()
}

// cycle runs partition p's four steps of one cycle, with a phase
// barrier between consecutive steps when P>1.
//
// A fused cycle runs the same steps with the three intermediate barriers
// elided. That is sound because the fuse decision (taken by the leader
// inside the previous end-of-cycle barrier) certifies every link arbiter
// and group router clean, and within the cycle nothing makes them tick:
//
//   - step A and the tile ticks write cross-partition only into
//     link-arbiter input FIFOs (single producer per FIFO: the owning
//     tile router) and the atomic dirty bitsets; the arbiters
//     themselves never tick, so no FIFO gains a second toucher.
//   - the ClassLink pass is skipped outright: under partition skew its
//     snapshot may contain an arbiter dirtied by another partition's
//     tile ticks *this* cycle, which the barriered schedule would only
//     tick next cycle.
//   - the ClassGroup pass in step D runs on a provably empty snapshot
//     (group routers are fed only by link arbiters, which did not tick).
//   - no link arbiter sleeps through a fused cycle. A sleeping arbiter
//     is clean but holds messages; it sleeps only behind a full link,
//     and the group router reading that link is then busy and — group
//     routers never sleep — dirty, so QuietCrossTile refuses the fuse.
//     A tile router may sleep during a fused cycle, but within it only
//     its own partition's banks pop its outputs (step D, after its
//     tick on the same goroutine); link arbiters, the other poppers,
//     do not tick until a later, unfused cycle.
//
// Every other FIFO pair is partition-local, and tile-ingress pushes from
// the previous cycle's group ticks were sealed by that cycle's end
// barrier — so the state evolution is bit-identical to the four-barrier
// schedule. The parity suite requires both shapes to run.
func (s *System) cycle(p *partition) {
	s.stepA(p)
	if s.fused {
		p.cRouters = s.Fabric.TickShardClass(&p.fsc, noc.ClassTile)
	} else {
		s.phaseBarrier()
		p.cRouters = s.Fabric.TickShardClass(&p.fsc, noc.ClassTile)
		s.phaseBarrier()
		p.cRouters += s.Fabric.TickShardClass(&p.fsc, noc.ClassLink)
		s.phaseBarrier()
	}
	s.stepD(p)
}

// phaseBarrier separates two steps of a cycle; a no-op at P=1.
func (s *System) phaseBarrier() {
	if s.barrier != nil {
		s.barrier.Wait(nil)
	}
}

// stepA runs a partition's timer wakes and core-slot ticks, then
// snapshots the partition's dirty routers for the fabric steps.
func (s *System) stepA(p *partition) {
	// Expired PAUSE countdowns rejoin the schedule first, so the core
	// executes this cycle exactly as under dense ticking.
	p.cParks = 0
	p.slots.WakeDue(s.Clock.Now(), func(id int) { s.Cores[id].Unpark() })
	p.slotScratch = p.slots.AppendRunnable(p.slotScratch[:0])
	for _, i := range p.slotScratch {
		q, c := s.Qnodes[i], s.Cores[i]
		q.Tick()
		if !c.Parked() {
			c.Tick()
			if c.Quiescent() {
				s.park(p, i)
			}
		}
		if c.Parked() && !q.Busy() {
			p.slots.Sleep(i)
		}
	}
	p.cSlots = len(p.slotScratch)
	s.Fabric.SnapshotShard(p.id, &p.fsc)
}

// park takes a quiescent core off its partition's schedule, registering
// its timer wake-up when it is counting down a PAUSE.
func (s *System) park(p *partition, i int) {
	c := s.Cores[i]
	p.stats.Parks++
	p.cParks++
	if c.State() == cpu.Halted {
		p.nHalted++
	}
	if wakeAt := c.Park(); wakeAt >= 0 {
		p.slots.WakeAt(i, wakeAt)
	}
}

// stepD runs a partition's tail of the cycle: group routers, banks
// with queued work, and response delivery. The three touch disjoint
// FIFO sets — group routers push tile-ingress (consumed next cycle),
// banks pop BankReq and push BankResp, delivery pops CoreResp — and
// every one of those FIFOs is partition-local, so no barrier is needed
// between them.
func (s *System) stepD(p *partition) {
	p.cRouters += s.Fabric.TickShardClass(&p.fsc, noc.ClassGroup)

	p.bankScratch = p.banks.AppendTo(p.bankScratch[:0])
	for _, b := range p.bankScratch {
		bank := s.Banks[b]
		bank.Tick()
		if bank.Idle() {
			p.banks.Remove(b)
		}
	}

	p.delScratch = p.deliv.AppendTo(p.delScratch[:0])
	for _, i := range p.delScratch {
		if resp, ok := s.Fabric.CoreResp[i].Pop(); ok {
			if out, ok := s.Qnodes[i].Deliver(resp); ok {
				s.Cores[i].Deliver(out) // unparks; executes next cycle
				p.slots.Wake(i)
			}
			if s.Qnodes[i].Busy() {
				p.slots.Wake(i) // protocol traffic to drain (wake-up bounce)
			}
		}
		if s.Fabric.CoreResp[i].Len() == 0 {
			p.deliv.Remove(i)
		}
	}
	p.cBanks = len(p.bankScratch)
	p.cDeliv = len(p.delScratch)
	p.stats.SlotsTicked += uint64(p.cSlots)
	p.stats.RoutersTicked += uint64(p.cRouters)
	p.stats.BanksTicked += uint64(p.cBanks)
	p.stats.DelivTicked += uint64(p.cDeliv)
}

// endCycle closes a cycle with every partition quiesced: fold the
// per-partition counts into Kernel and advance the clock.
func (s *System) endCycle() {
	k := &s.Kernel
	k.Ticks++
	for _, p := range s.parts {
		k.SlotsTicked += uint64(p.cSlots)
		k.RoutersTicked += uint64(p.cRouters)
		k.BanksTicked += uint64(p.cBanks)
		k.DelivTicked += uint64(p.cDeliv)
		k.Parks += uint64(p.cParks)
	}
	s.Clock.Advance()
}

// active reports whether any component can make progress this cycle
// without a timer firing first: a runnable slot, queued bank work, a
// pending delivery or a dirty router. When false, every message has
// drained and every core is parked: the only future events are PAUSE
// expiries. Only called with the partitions quiesced.
func (s *System) active() bool {
	for _, p := range s.parts {
		if p.slots.AnyRunnable() || !p.banks.Empty() || !p.deliv.Empty() {
			return true
		}
	}
	return s.Fabric.Busy()
}

// nextWake returns the earliest pending timed wake-up across all
// partition heaps.
func (s *System) nextWake() (engine.Cycle, bool) {
	var best engine.Cycle
	ok := false
	for _, p := range s.parts {
		if w, o := p.slots.NextWake(); o && (!ok || w < best) {
			best, ok = w, true
		}
	}
	return best, ok
}

// halted reports whether every core has halted, from the partitions'
// counts.
func (s *System) halted() bool {
	n := 0
	for _, p := range s.parts {
		n += p.nHalted
	}
	return n == len(s.Cores)
}

// fastForward jumps the clock to cycle at, accounting the skipped span.
func (s *System) fastForward(at engine.Cycle) {
	if saved := at - s.Clock.Now(); saved > 0 {
		s.Kernel.FFSpans++
		s.Kernel.FFCyclesSaved += uint64(saved)
	}
	s.Clock.AdvanceTo(at)
}
