package experiments

import (
	"reflect"
	"testing"

	"repro/internal/noc"
	"repro/internal/platform"
)

// Exact metamorphic relations between Fig. 3 configurations on the
// small topology. Each needs no reference model: two configurations
// that cannot behave differently must produce identical Activity.

const metaWarmup, metaMeasure = 3000, 10000

// measureHist runs one histogram point and returns its measured
// Activity and the system, whose PolicyStats cover the whole run.
func measureHist(spec HistSpec, pol Policy, topo noc.Topology, bins int) (platform.Activity, *platform.System) {
	sys, _ := buildHistogram(spec, pol, topo, bins, 0)
	return sys.Measure(metaWarmup, metaMeasure), sys
}

// fig3Spec returns the named Fig. 3 curve.
func fig3Spec(t *testing.T, topo noc.Topology, name string) HistSpec {
	t.Helper()
	for _, s := range Fig3Specs(topo.NumCores()) {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no Fig. 3 curve %q", name)
	return HistSpec{}
}

// TestQueueCapWithoutRefusalsIsIdeal: an LRSCwait queue that never
// refuses a request behaves exactly like the ideal queue (one slot per
// core), whatever its capacity.
func TestQueueCapWithoutRefusalsIsIdeal(t *testing.T) {
	topo := noc.Small()
	spec := fig3Spec(t, topo, "lrscwait-ideal")
	cores := topo.NumCores()
	nonTrivial := 0
	for _, bins := range StandardBins(topo) {
		ideal, _ := measureHist(spec, spec.PolicyConfig(), topo, bins)
		for _, q := range []int{1, 2, 4, 8, 12} {
			pol := spec.PolicyConfig()
			pol.QueueCap = q
			act, sys := measureHist(spec, pol, topo, bins)
			if sys.PolicyStats().Refused != 0 {
				continue
			}
			if q < cores {
				nonTrivial++
			}
			if !reflect.DeepEqual(act, ideal) {
				t.Errorf("bins=%d queuecap=%d: zero refusals but Activity differs from the ideal queue\ncap:   %+v\nideal: %+v",
					bins, q, act, ideal)
			}
		}
	}
	if nonTrivial == 0 {
		t.Fatalf("no run with queuecap < %d cores recorded zero refusals; the relation was never tested", cores)
	}
}

// TestColibriPairsBeyondContentionChangeNothing: Colibri head/tail pairs
// beyond the number of contended addresses per bank stay unused, so
// every such colibriq value gives identical Activity.
func TestColibriPairsBeyondContentionChangeNothing(t *testing.T) {
	topo := noc.Small()
	spec := fig3Spec(t, topo, "colibri")
	queued := 0
	for _, bins := range StandardBins(topo) {
		// Bins sit in consecutive words, and words interleave across
		// banks, so each bank holds at most this many contended words.
		perBank := (bins + topo.NumBanks() - 1) / topo.NumBanks()
		var base platform.Activity
		baseQ := 0
		for _, q := range []int{1, 2, 4, 16} {
			if q < perBank {
				continue
			}
			pol := spec.PolicyConfig()
			pol.ColibriQueues = q
			act, _ := measureHist(spec, pol, topo, bins)
			if baseQ == 0 {
				base, baseQ = act, q
				if act.SuccUpdates > 0 {
					queued++
				}
				continue
			}
			if !reflect.DeepEqual(act, base) {
				t.Errorf("bins=%d: colibriq=%d and colibriq=%d differ with %d contended address(es) per bank\n%d: %+v\n%d: %+v",
					bins, baseQ, q, perBank, baseQ, base, q, act)
			}
		}
	}
	// Without queued waiters the head/tail pairs would hold nothing
	// and the comparison would be trivially equal.
	if queued == 0 {
		t.Fatal("no bin count queued a Colibri waiter; the relation was never tested")
	}
}
