package platform

import (
	"strings"

	"repro/internal/obs"
)

// publishTable is every counter PublishObs reports: its metric name and
// how it is read from a counter-record delta. "<policy>" in a name
// stands for the resolved policy's registered name. The skipped counts
// are derived as Ticks×population − ticked: every executed Tick either
// visits a component or skips it (cycles removed entirely by
// fast-forwarding are reported separately as kernel.ff.*).
var publishTable = []struct {
	name string
	get  func(s *System, d *counters) uint64
}{
	{"kernel.ticks", func(_ *System, d *counters) uint64 { return d.Kernel.Ticks }},
	{"kernel.slots.ticked", func(_ *System, d *counters) uint64 { return d.Kernel.SlotsTicked }},
	{"kernel.slots.skipped", func(s *System, d *counters) uint64 {
		return d.Kernel.Ticks*uint64(len(s.Cores)) - d.Kernel.SlotsTicked
	}},
	{"kernel.routers.ticked", func(_ *System, d *counters) uint64 { return d.Kernel.RoutersTicked }},
	{"kernel.routers.skipped", func(s *System, d *counters) uint64 {
		return d.Kernel.Ticks*uint64(s.nRouters) - d.Kernel.RoutersTicked
	}},
	{"kernel.banks.ticked", func(_ *System, d *counters) uint64 { return d.Kernel.BanksTicked }},
	{"kernel.banks.skipped", func(s *System, d *counters) uint64 {
		return d.Kernel.Ticks*uint64(len(s.Banks)) - d.Kernel.BanksTicked
	}},
	{"kernel.deliv.ticked", func(_ *System, d *counters) uint64 { return d.Kernel.DelivTicked }},
	{"kernel.cores.parked", func(_ *System, d *counters) uint64 { return d.Kernel.Parks }},
	{"kernel.ff.spans", func(_ *System, d *counters) uint64 { return d.Kernel.FFSpans }},
	{"kernel.ff.cycles_saved", func(_ *System, d *counters) uint64 { return d.Kernel.FFCyclesSaved }},
	{"kernel.wakeheap.push", func(_ *System, d *counters) uint64 { return d.HeapPushes }},
	{"kernel.wakeheap.pop", func(_ *System, d *counters) uint64 { return d.HeapPops }},

	{"kernel.core.deliveries", func(_ *System, d *counters) uint64 { return d.Deliveries }},
	{"kernel.fabric.flits", func(_ *System, d *counters) uint64 { return d.Flits }},
	{"kernel.bank.accesses", func(_ *System, d *counters) uint64 { return d.BankAccesses }},
	{"kernel.bank.writes", func(_ *System, d *counters) uint64 { return d.BankWrites }},
	{"kernel.bank.responses", func(_ *System, d *counters) uint64 { return d.BankResponses }},

	{"kernel.policy.<policy>.requests", func(_ *System, d *counters) uint64 { return d.BankAccesses }},
	{"kernel.policy.<policy>.grants", func(_ *System, d *counters) uint64 { return d.Policy.Grants }},
	{"kernel.policy.<policy>.nacks", func(_ *System, d *counters) uint64 { return d.Policy.Refused }},
	{"kernel.policy.<policy>.sc_success", func(_ *System, d *counters) uint64 { return d.Policy.SCSuccess }},
	{"kernel.policy.<policy>.sc_fail", func(_ *System, d *counters) uint64 { return d.Policy.SCFail }},
	{"kernel.policy.<policy>.invalidations", func(_ *System, d *counters) uint64 { return d.Policy.Invalidations }},
}

// metricName resolves a publishTable name for this system's policy.
func (s *System) metricName(name string) string {
	return strings.Replace(name, "<policy>", s.Policy.Name(), 1)
}

// PublishObs pushes this system's activity since the previous publish
// into reg, under the publishTable names, eliding zero deltas so a run's
// metric diff stays limited to what actually happened. It is the
// cold-path half of the kernel's instrumentation: the hot loop
// increments plain per-System fields (KernelStats, core/bank Stats),
// and a run publishes the totals once, after Measure. Call it any
// number of times; deltas are exact, which matters because many Systems
// (the points of a sweep) feed the same cumulative process-wide
// registry.
//
// PublishObs is safe to call concurrently on the same System (e.g. a
// periodic metrics flusher racing a run's final publish): the walk and
// diff are serialized under a mutex so each delta is counted exactly
// once.
func (s *System) PublishObs(reg *obs.Registry) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	cur := s.walk()
	d := diff(s.lastPub, cur)
	s.lastPub = cur
	for _, row := range publishTable {
		if v := row.get(s, &d); v != 0 {
			reg.Counter(s.metricName(row.name)).Add(v)
		}
	}
}
