package platform

// RouterSleeps returns how often the fabric parked a stalled router
// and how often a pop of a full output woke one.
func (s *System) RouterSleeps() (slept, woken uint64) { return s.Fabric.SleepStats() }
