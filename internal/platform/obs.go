package platform

import (
	"strconv"

	"repro/internal/mem"
	"repro/internal/obs"
)

// obsTotals is a flattened snapshot of every counter PublishObs reports,
// summed across the system's components. PublishObs keeps the previous
// totals per System so repeated publishes add only the activity since the
// last one — required because many Systems (the points of a sweep) feed
// the same cumulative process-wide registry.
type obsTotals struct {
	kernel      KernelStats
	heapPushes  uint64
	heapPops    uint64
	fusedCycles uint64

	deliveries uint64

	flits       uint64
	accesses    uint64
	writes      uint64
	responses   uint64
	stallCycles uint64

	policy mem.AdapterStats
}

// collectTotals gathers the current cumulative totals (SyncStats has
// already reconciled parked cores when needed; only plain counters are
// read here).
func (s *System) collectTotals() obsTotals {
	t := obsTotals{kernel: s.Kernel, fusedCycles: s.fusedCycles}
	for _, p := range s.parts {
		t.heapPushes += p.slots.HeapPushes
		t.heapPops += p.slots.HeapPops
	}
	for _, c := range s.Cores {
		t.deliveries += c.Stats.Deliveries
	}
	t.flits = s.Fabric.Flits()
	for _, b := range s.Banks {
		t.accesses += b.Stats.Accesses
		t.writes += b.Stats.Writes
		t.responses += b.Stats.Responses
		t.stallCycles += b.Stats.StallCycles
		if sr, ok := b.Adapter().(mem.StatsReporter); ok {
			st := sr.AdapterStats()
			t.policy.Grants += st.Grants
			t.policy.Refused += st.Refused
			t.policy.SCSuccess += st.SCSuccess
			t.policy.SCFail += st.SCFail
			t.policy.Invalidations += st.Invalidations
		}
	}
	return t
}

// addNZ adds a counter delta to the registry, eliding zero deltas so a
// run's metric diff stays limited to what actually happened.
func addNZ(reg *obs.Registry, name string, delta uint64) {
	if delta != 0 {
		reg.Counter(name).Add(delta)
	}
}

// PublishObs pushes this system's activity since the previous publish
// into reg, under "kernel.*" names (and "kernel.policy.<name>.*" for the
// resolved policy's adapter counters). It is the cold-path half of the
// kernel's instrumentation: the hot loop increments plain per-System
// fields (KernelStats, core/bank Stats), and a run publishes the totals
// once, after Measure. Call it any number of times; deltas are exact.
//
// The per-phase skipped counts are derived here as Ticks×population −
// ticked: every executed Tick either visits a component or skips it
// (cycles removed entirely by fast-forwarding are reported separately as
// kernel.ff.*).
//
// PublishObs is safe to call concurrently on the same System (e.g. a
// periodic metrics flusher racing a run's final publish): the
// collect-and-diff is serialized under a mutex so each delta is counted
// exactly once.
func (s *System) PublishObs(reg *obs.Registry) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	cur := s.collectTotals()
	prev := s.lastPub
	s.lastPub = cur

	k, pk := cur.kernel, prev.kernel
	addNZ(reg, "kernel.ticks", k.Ticks-pk.Ticks)
	ticks := k.Ticks - pk.Ticks
	slots := k.SlotsTicked - pk.SlotsTicked
	addNZ(reg, "kernel.slots.ticked", slots)
	addNZ(reg, "kernel.slots.skipped", ticks*uint64(len(s.Cores))-slots)
	routers := k.RoutersTicked - pk.RoutersTicked
	addNZ(reg, "kernel.routers.ticked", routers)
	addNZ(reg, "kernel.routers.skipped", ticks*uint64(s.nRouters)-routers)
	banks := k.BanksTicked - pk.BanksTicked
	addNZ(reg, "kernel.banks.ticked", banks)
	addNZ(reg, "kernel.banks.skipped", ticks*uint64(len(s.Banks))-banks)
	addNZ(reg, "kernel.deliv.ticked", k.DelivTicked-pk.DelivTicked)
	addNZ(reg, "kernel.cores.parked", k.Parks-pk.Parks)
	addNZ(reg, "kernel.ff.spans", k.FFSpans-pk.FFSpans)
	addNZ(reg, "kernel.ff.cycles_saved", k.FFCyclesSaved-pk.FFCyclesSaved)
	addNZ(reg, "kernel.wakeheap.push", cur.heapPushes-prev.heapPushes)
	addNZ(reg, "kernel.wakeheap.pop", cur.heapPops-prev.heapPops)

	addNZ(reg, "kernel.core.deliveries", cur.deliveries-prev.deliveries)
	addNZ(reg, "kernel.fabric.flits", cur.flits-prev.flits)
	addNZ(reg, "kernel.bank.accesses", cur.accesses-prev.accesses)
	addNZ(reg, "kernel.bank.writes", cur.writes-prev.writes)
	addNZ(reg, "kernel.bank.responses", cur.responses-prev.responses)
	addNZ(reg, "kernel.bank.stall_cycles", cur.stallCycles-prev.stallCycles)

	pre := "kernel.policy." + s.Policy.Name() + "."
	addNZ(reg, pre+"requests", cur.accesses-prev.accesses)
	addNZ(reg, pre+"grants", cur.policy.Grants-prev.policy.Grants)
	addNZ(reg, pre+"nacks", cur.policy.Refused-prev.policy.Refused)
	addNZ(reg, pre+"sc_success", cur.policy.SCSuccess-prev.policy.SCSuccess)
	addNZ(reg, pre+"sc_fail", cur.policy.SCFail-prev.policy.SCFail)
	addNZ(reg, pre+"invalidations", cur.policy.Invalidations-prev.policy.Invalidations)

	// Per-partition load-balance view. Only emitted when the kernel has
	// more than one partition, so one-partition runs keep their exact
	// metric set.
	if len(s.parts) > 1 {
		reg.Gauge("kernel.partitions").Set(int64(len(s.parts)))
		addNZ(reg, "kernel.fused_cycles", cur.fusedCycles-prev.fusedCycles)
		for i, p := range s.parts {
			pk, prevPK := p.stats, s.lastPubParts[i]
			s.lastPubParts[i] = pk
			pre := "kernel.part." + strconv.Itoa(i) + "."
			addNZ(reg, pre+"slots.ticked", pk.SlotsTicked-prevPK.SlotsTicked)
			addNZ(reg, pre+"routers.ticked", pk.RoutersTicked-prevPK.RoutersTicked)
			addNZ(reg, pre+"banks.ticked", pk.BanksTicked-prevPK.BanksTicked)
			addNZ(reg, pre+"deliv.ticked", pk.DelivTicked-prevPK.DelivTicked)
			addNZ(reg, pre+"cores.parked", pk.Parks-prevPK.Parks)
		}
	}
}
