package platform

// AutoCalibrationTicks is the PartitionsAuto calibration window, for
// tests that run past it.
var AutoCalibrationTicks = autoCalibrationTicks

// SetAutoThresholds overrides the PartitionsAuto per-partition work
// threshold and calibration window, and returns a function restoring
// the previous values.
func SetAutoThresholds(workPerPartition, calibrationTicks int) (restore func()) {
	prevWork, prevTicks := autoWorkPerPartition, autoCalibrationTicks
	autoWorkPerPartition, autoCalibrationTicks = workPerPartition, calibrationTicks
	return func() { autoWorkPerPartition, autoCalibrationTicks = prevWork, prevTicks }
}

// Repartition moves a system onto nParts partitions at the current
// cycle boundary, as PartitionsAuto does after calibration.
func (s *System) Repartition(nParts int) { s.repartition(nParts) }

// RouterSleeps returns how often the fabric parked a stalled router
// and how often a pop of a full output woke one.
func (s *System) RouterSleeps() (slept, woken uint64) { return s.Fabric.SleepStats() }
