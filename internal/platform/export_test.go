package platform

// RouterSleeps returns how often the fabric parked a stalled router
// and how often a pop of a full output woke one.
func (s *System) RouterSleeps() (slept, woken uint64) { return s.Fabric.SleepStats() }

// PublishedNames returns every metric name PublishObs can report for
// this system, in publish-table order.
func (s *System) PublishedNames() []string {
	names := make([]string, len(publishTable))
	for i, row := range publishTable {
		names[i] = s.metricName(row.name)
	}
	return names
}

// WakeHeapOps returns the scheduler's cumulative wake-heap pushes and pops.
func (s *System) WakeHeapOps() (pushes, pops uint64) {
	return s.slots.HeapPushes, s.slots.HeapPops
}
