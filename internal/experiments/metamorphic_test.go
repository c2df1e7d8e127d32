package experiments

import (
	"reflect"
	"testing"

	"repro/internal/bus"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/platform"
	"repro/internal/reserve"
)

// Exact metamorphic relations between Fig. 3 configurations on the
// small topology. Each needs no reference model: two configurations
// that cannot behave differently must produce identical Activity.

const metaWarmup, metaMeasure = 3000, 10000

// measureHist runs one histogram point and returns its measured
// Activity and the system, whose PolicyStats cover the whole run.
func measureHist(spec HistSpec, topo noc.Topology, bins int) (platform.Activity, *platform.System) {
	sys := newHistogram(spec, topo, bins, platform.NewLayout(0))
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
		ideal, _ := measureHist(spec, topo, bins)
		for _, q := range []int{1, 2, 4, 8, 12} {
			capped := spec
			capped.Policy.QueueCap = q
			act, sys := measureHist(capped, topo, bins)
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
			paired := spec
			paired.Policy.ColibriQueues = q
			act, _ := measureHist(paired, topo, bins)
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

// TestOneSlotQueueIsSingleSlotLRSC: a one-slot LRSCwait queue grants
// its slot to the first LRwait and refuses the others until the
// holder's SCwait, which is exactly how reserve.SingleSlot treats LR
// and SC. So Fig. 3's lrscwait-1 and lrsc curves run the same
// operations cycle for cycle. Only the bookkeeping differs: the LRwait
// holder's wait counts as sleep rather than memory wait, and a refused
// LRwait counts as a wait refusal.
func TestOneSlotQueueIsSingleSlotLRSC(t *testing.T) {
	refused := false
	for _, topo := range []noc.Topology{noc.Small(), noc.Medium()} {
		one, lrsc := fig3Spec(t, topo, "lrscwait-1"), fig3Spec(t, topo, "lrsc")
		for _, bins := range []int{1, 2, 4, 16, 64} {
			oneAct, oneSys := measureHist(one, topo, bins)
			lrscAct, lrscSys := measureHist(lrsc, topo, bins)
			if a, b := oneSys.PolicyStats(), lrscSys.PolicyStats(); a != b {
				t.Errorf("%d cores, bins=%d: PolicyStats differ\nlrscwait-1: %+v\nlrsc:       %+v",
					topo.NumCores(), bins, a, b)
			}
			want := oneAct
			want.MemWaitCycles += want.SleepCycles
			want.SleepCycles, want.WaitRefusals = 0, 0
			if !reflect.DeepEqual(lrscAct, want) {
				t.Errorf("%d cores, bins=%d: Activity differs beyond the sleep/refusal bookkeeping\nlrscwait-1: %+v\nlrsc:       %+v",
					topo.NumCores(), bins, oneAct, lrscAct)
			}
			refused = refused || oneAct.WaitRefusals > 0
		}
	}
	if !refused {
		t.Fatal("no run refused an LRwait; the one-slot queue was never full and the relation was never tested")
	}
}

// TestLayoutShiftByBankCountIsExact: words interleave across banks, so
// starting a histogram's data a multiple of NumBanks words later keeps
// every word on its bank, and the run is identical. A one-word shift
// moves every word to the next bank; it must change at least one run,
// or the comparison could not see a layout change at all.
func TestLayoutShiftByBankCountIsExact(t *testing.T) {
	const warmup, measure = 1000, 4000
	run := func(spec HistSpec, topo noc.Topology, bins int, start uint32) platform.Activity {
		return newHistogram(spec, topo, bins, platform.NewLayout(start)).Measure(warmup, measure)
	}
	oneWordDiffers := false
	for _, topo := range []noc.Topology{noc.Small(), noc.Medium()} {
		banks := uint32(topo.NumBanks())
		for _, spec := range append(Fig3Specs(topo.NumCores()), Fig4Specs()...) {
			for _, bins := range []int{1, 4, 16} {
				base := run(spec, topo, bins, 0)
				for _, start := range []uint32{banks, 3 * banks} {
					if got := run(spec, topo, bins, start); !reflect.DeepEqual(got, base) {
						t.Errorf("%d cores, %s, bins=%d: layout at word %d differs from word 0\nshifted: %+v\nbase:    %+v",
							topo.NumCores(), spec.Name, bins, start, got, base)
					}
				}
				if !oneWordDiffers {
					oneWordDiffers = !reflect.DeepEqual(run(spec, topo, bins, 1), base)
				}
			}
		}
	}
	if !oneWordDiffers {
		t.Fatal("no one-word shift changed a run; the test cannot see a layout change")
	}
}

// Relations (a), (b) and (c) of ROADMAP item 20 run on small and medium at
// these bin counts and windows; each also runs a control policy that
// breaks it, so a relation cannot pass by comparing nothing.
var relationBins = []int{1, 4, 16, 64}

const relationWarmup, relationMeasure = 1000, 4000

// capMinusTwo is the control policy of relation (a): the lrscwait queue
// with two slots fewer than QueueCap asks for (the ideal queue's
// NumCores when QueueCap is 0). One fewer is no control: in these runs
// a bank's queue never holds more than NumCores − 1 waiters, so a
// queue of NumCores − 1 slots never refuses either.
type capMinusTwo struct{ queueCap int }

const capMinusTwoName = "capminus2"

func init() { platform.MustRegisterPolicy(capMinusTwo{}) }

func (capMinusTwo) Name() string { return capMinusTwoName }
func (capMinusTwo) Normalize(params platform.PolicyParams, _ noc.Topology) (platform.Policy, error) {
	return capMinusTwo{queueCap: params.QueueCap}, nil
}
func (p capMinusTwo) NewAdapter(b platform.BankContext) mem.Adapter {
	slots := p.queueCap
	if slots <= 0 {
		slots = b.NumCores
	}
	return reserve.NewWaitQueue(max(slots-2, 1))
}

// relationRun measures spec over the relation windows and returns its
// Activity and PolicyStats.
func relationRun(spec HistSpec, topo noc.Topology, bins int) (platform.Activity, mem.AdapterStats) {
	sys := newHistogram(spec, topo, bins, platform.NewLayout(0))
	act := sys.Measure(relationWarmup, relationMeasure)
	return act, sys.PolicyStats()
}

// relationHolds runs every spec of specs on each topology and bin count
// and reports each (topology, bins) at which a spec's Activity or
// PolicyStats differ from the first spec's, through report (nil to only
// count them). It returns how many such cases it found.
func relationHolds(t *testing.T, specs func(noc.Topology) []HistSpec,
	report func(topo noc.Topology, bins int, a, b HistSpec)) int {
	t.Helper()
	broken := 0
	for _, topo := range []noc.Topology{noc.Small(), noc.Medium()} {
		ss := specs(topo)
		for _, bins := range relationBins {
			baseAct, baseStats := relationRun(ss[0], topo, bins)
			for _, s := range ss[1:] {
				act, st := relationRun(s, topo, bins)
				if st != baseStats || !reflect.DeepEqual(act, baseAct) {
					broken++
					if report != nil {
						report(topo, bins, ss[0], s)
					}
				}
			}
		}
	}
	return broken
}

// TestQueueThatCannotFillIsIdeal is relation (a): each core has at most
// one outstanding LRwait, so a wait queue of 4 × NumCores slots never
// fills and runs exactly as the ideal queue (QueueCap 0, NumCores
// slots). Under capminus2 the ideal queue has NumCores − 2 slots and
// can fill, so the relation must fail there.
func TestQueueThatCannotFillIsIdeal(t *testing.T) {
	specs := func(kind platform.PolicyKind) func(noc.Topology) []HistSpec {
		return func(topo noc.Topology) []HistSpec {
			ideal := fig3Spec(t, topo, "lrscwait-ideal")
			ideal.Policy.Kind = kind
			big := ideal
			big.Policy.QueueCap = 4 * topo.NumCores()
			return []HistSpec{ideal, big}
		}
	}
	relationHolds(t, specs(platform.PolicyWaitQueue), func(topo noc.Topology, bins int, _, _ HistSpec) {
		t.Errorf("%d cores, bins=%d: lrscwait with queuecap=%d differs from the ideal queue",
			topo.NumCores(), bins, 4*topo.NumCores())
	})
	if relationHolds(t, specs(capMinusTwoName), nil) == 0 {
		t.Fatalf("%s never told queuecap 0 from 4 × cores; the comparison cannot see a queue that fills", capMinusTwoName)
	}
}

// TestColibriIgnoresQueueCap is relation (c): Colibri reads no
// QueueCap, so under colibri the four LRwait curves of Fig. 3
// (lrscwait-ideal, lrscwait-<cores/2>, lrscwait-1 and colibri, which
// differ only in QueueCap) run the same simulation. lrscwait reads
// QueueCap, so under it the relation must fail.
func TestColibriIgnoresQueueCap(t *testing.T) {
	specs := func(kind platform.PolicyKind) func(noc.Topology) []HistSpec {
		return func(topo noc.Topology) []HistSpec {
			var out []HistSpec
			for _, s := range Fig3Specs(topo.NumCores()) {
				if s.Variant == kernels.HistLRSCWait {
					s.Policy.Kind = kind
					out = append(out, s)
				}
			}
			if len(out) != 4 {
				t.Fatalf("%d cores: %d LRwait curves in Fig. 3, want 4", topo.NumCores(), len(out))
			}
			return out
		}
	}
	relationHolds(t, specs(platform.PolicyColibri), func(topo noc.Topology, bins int, a, b HistSpec) {
		t.Errorf("%d cores, bins=%d: under colibri %s (queuecap=%d) differs from %s (queuecap=%d)",
			topo.NumCores(), bins, b.Name, b.Policy.QueueCap, a.Name, a.Policy.QueueCap)
	})
	if relationHolds(t, specs(platform.PolicyWaitQueue), nil) == 0 {
		t.Fatal("lrscwait never told the four queue capacities apart; the comparison cannot see QueueCap")
	}
}

// lateReply is the control policy of relation (b): the plain adapter,
// except that each reply to an AMO (lateamo) or to a Load (lateload)
// waits at its bank until the bank's next request, so the timing of a
// curve made of those operations depends on the policy.
type lateReply struct{ load bool }

const lateAMOName, lateLoadName = "lateamo", "lateload"

func init() {
	platform.MustRegisterPolicy(lateReply{})
	platform.MustRegisterPolicy(lateReply{load: true})
}

func (p lateReply) Name() string {
	if p.load {
		return lateLoadName
	}
	return lateAMOName
}
func (p lateReply) Normalize(platform.PolicyParams, noc.Topology) (platform.Policy, error) {
	return p, nil
}
func (p lateReply) NewAdapter(platform.BankContext) mem.Adapter { return &lateAdapter{load: p.load} }

type lateAdapter struct {
	load bool
	held []bus.Response
}

func (a *lateAdapter) Handle(req bus.Request, s mem.Storage, out []bus.Response) []bus.Response {
	out = append(out, a.held...)
	a.held = a.held[:0]
	if a.load && req.Op == bus.Load || !a.load && req.Op.IsAMO() {
		a.held = mem.PlainAdapter{}.Handle(req, s, a.held)
		return out
	}
	return mem.PlainAdapter{}.Handle(req, s, out)
}

// TestAMOCurveIsPolicyInvariant is relation (b): Fig. 3's amoadd curve
// makes no reservation, so every registered policy runs it exactly as
// plain does, with plain's zero PolicyStats. Under lateamo the AMO
// replies come later, so the relation must fail there.
func TestAMOCurveIsPolicyInvariant(t *testing.T) {
	specs := func(kinds ...string) func(noc.Topology) []HistSpec {
		return func(topo noc.Topology) []HistSpec {
			var out []HistSpec
			for _, k := range kinds {
				s := fig3Spec(t, topo, "amoadd")
				s.Policy.Kind = platform.PolicyKind(k)
				out = append(out, s)
			}
			return out
		}
	}
	kinds := []string{string(platform.PolicyPlain)}
	for _, k := range platform.PolicyNames() {
		if k != string(platform.PolicyPlain) && k != lateAMOName && k != lateLoadName {
			kinds = append(kinds, k)
		}
	}
	plain := specs(string(platform.PolicyPlain))(noc.Small())[0]
	if _, st := relationRun(plain, noc.Small(), 1); st != (mem.AdapterStats{}) {
		t.Fatalf("amoadd under plain has PolicyStats %+v, want zero", st)
	}
	relationHolds(t, specs(kinds...), func(topo noc.Topology, bins int, a, b HistSpec) {
		t.Errorf("%d cores, bins=%d: amoadd under %s differs from %s",
			topo.NumCores(), bins, b.Policy.Kind, a.Policy.Kind)
	})
	if relationHolds(t, specs(string(platform.PolicyPlain), lateAMOName), nil) == 0 {
		t.Fatalf("%s never told amoadd from plain; the comparison cannot see AMO timing", lateAMOName)
	}
}

// fig5MatN is the sweep's default Fig. 5 matrix dimension.
const fig5MatN = 128

// TestFig5BaselineIsPolicyInvariant is the Fig. 5 half of relation (b):
// the interference-free run (matmul workers doing loads and stores
// only, pollers halted) makes no reservation and no AMO, so every
// registered policy runs it exactly as plain does, with plain's zero
// PolicyStats. It is why RunInterferenceBaseline's one definition, the
// workers alone on plain memory, gives every built-in policy's curve the
// bytes its own baseline would. The baseline moves with the bin count,
// which shifts the matrices in memory, so runs are compared only at
// equal bins. Under lateload the Load replies come later, so the
// relation must fail there: such a policy gets the plain baseline.
func TestFig5BaselineIsPolicyInvariant(t *testing.T) {
	run := func(kind string, topo noc.Topology, ratio InterferenceRatio, bins int) (platform.Activity, mem.AdapterStats) {
		spec := HistSpec{Variant: kernels.HistLRSC, Policy: PaperPolicy(platform.PolicyKind(kind))}
		sys := interferenceSystem(spec, topo, ratio, bins, fig5MatN, false)
		return sys.Measure(relationWarmup, relationMeasure), sys.PolicyStats()
	}
	// broken runs kinds on each topology, ratio and bin count and
	// returns how many runs differ from kinds[0]'s, reporting each
	// through report (nil to only count them).
	broken := func(kinds []string, report func(topo noc.Topology, r InterferenceRatio, bins int, kind string)) int {
		n := 0
		for _, topo := range []noc.Topology{noc.Small(), noc.Medium()} {
			for _, ratio := range PaperRatios(topo.NumCores())[:2] {
				for _, bins := range []int{1, 4, 16} {
					baseAct, baseStats := run(kinds[0], topo, ratio, bins)
					if baseStats != (mem.AdapterStats{}) {
						t.Fatalf("%s has PolicyStats %+v, want zero", kinds[0], baseStats)
					}
					for _, k := range kinds[1:] {
						act, st := run(k, topo, ratio, bins)
						if st != baseStats || !reflect.DeepEqual(act, baseAct) {
							n++
							if report != nil {
								report(topo, ratio, bins, k)
							}
						}
					}
				}
			}
		}
		return n
	}
	plain := string(platform.PolicyPlain)
	kinds := []string{plain}
	for _, k := range platform.PolicyNames() {
		if k != plain && k != lateLoadName {
			kinds = append(kinds, k)
		}
	}
	broken(kinds, func(topo noc.Topology, r InterferenceRatio, bins int, kind string) {
		t.Errorf("%d cores, %d:%d, bins=%d: the Fig. 5 baseline under %s differs from %s",
			topo.NumCores(), r.Pollers, r.Workers, bins, kind, plain)
	})
	if broken([]string{plain, lateLoadName}, nil) == 0 {
		t.Fatalf("%s never told the Fig. 5 baseline from plain; the comparison cannot see Load timing", lateLoadName)
	}
}
