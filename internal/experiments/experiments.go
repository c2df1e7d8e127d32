// Package experiments holds the measurement primitives behind the
// paper's evaluation (Section V): the per-figure curve specs (which
// software variant under which hardware policy), the explicit Policy
// configuration threaded down to the platform, and the single-point
// runners every curve is built from. Each runner is parameterized by
// topology so the same code runs the paper-scale 256-core sweeps and
// reduced configurations (unit tests, testing.B benchmarks).
//
// Orchestration — fanning points across a worker pool, policy grids,
// caching, emitters — lives in the internal/sweep engine, where each
// figure/table is a registered sweep.Scenario assembling these runners
// into curves; all results share the unified sweep.Series/sweep.Point
// measurement model.
package experiments

import (
	"fmt"
	"reflect"
	"strconv"

	"repro/internal/kernels"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/platform"
)

// DefaultBackoff is the paper's retry/spin backoff of 128 cycles.
const DefaultBackoff = 128

// Policy is the explicit hardware/software policy configuration of one
// simulation point: which registered platform policy runs, with which
// parameters, under which software backoff. Every spec carries one and
// every runner threads it down to platform.Config, so a sweep overrides
// a point's policy by editing the spec's Policy.
type Policy struct {
	// Kind names the registered platform policy (see
	// platform.PolicyNames).
	Kind platform.PolicyKind
	// PolicyParams holds QueueCap and ColibriQueues (0 = each default).
	platform.PolicyParams
	// Backoff is the software's maximum retry/spin backoff in cycles
	// (0 = none). PaperPolicy sets the paper's 128.
	Backoff int32
}

// PaperPolicy returns kind under the paper's defaults: the 128-cycle
// retry/spin backoff, ideal wait queues and the default Colibri
// head/tail pair count. Every built-in spec starts from it.
func PaperPolicy(kind platform.PolicyKind) Policy {
	return Policy{Kind: kind, Backoff: DefaultBackoff}
}

// Config assembles the platform configuration for this policy on topo.
func (p Policy) Config(topo noc.Topology) platform.Config {
	return platform.Config{Topo: topo, Policy: p.Kind, PolicyParams: p.PolicyParams}
}

// KeyFragment canonicalizes the effective policy on topo for cache
// keys: the kind name, the backoff and the two policy parameters, so an
// override that merely restates a default keys identically to the
// baked-in configuration (it is the same simulation), while distinct
// effective policies can never collapse onto one entry. A parameter
// keys at its value only when the policy reads it, that is when the
// policy's Normalize resolves differently with the parameter set than
// with it zeroed; a parameter the policy ignores keys as its default.
// The rule asks the registered policy, so it holds for custom policies
// too. QueueCap 0 (ideal, one slot per core) is resolved by the
// platform against the topology, which cache-key prefixes already
// carry.
func (p Policy) KeyFragment(topo noc.Topology) string {
	q, cq := 0, platform.DefaultColibriQueues
	if p.QueueCap != 0 && p.reads(platform.PolicyParams{ColibriQueues: p.ColibriQueues}, topo) {
		q = p.QueueCap
	}
	if p.ColibriQueues != 0 && p.reads(platform.PolicyParams{QueueCap: p.QueueCap}, topo) {
		cq = p.ColibriQueues
	}
	return "p=" + string(p.Kind) + "|q" + strconv.Itoa(q) + "|cq" + strconv.Itoa(cq) + "|bo" + strconv.Itoa(int(p.Backoff))
}

// reads reports whether the policy's Normalize on topo resolves
// differently with p's parameters than with without. A parameter set
// that does not resolve counts as read, so it never collapses onto
// another entry.
func (p Policy) reads(without platform.PolicyParams, topo noc.Topology) bool {
	a, errA := platform.ResolvePolicy(p.Kind, p.PolicyParams, topo)
	b, errB := platform.ResolvePolicy(p.Kind, without, topo)
	return errA != nil || errB != nil || !reflect.DeepEqual(a, b)
}

// HistSpec pairs a histogram software variant with the policy it runs
// under — one curve of Fig. 3 or Fig. 4.
type HistSpec struct {
	Name    string
	Variant kernels.HistVariant
	Policy  Policy
}

// Fig3Specs returns the curves of Fig. 3 for a system with nCores cores:
// the AMO roofline, LRSCwait ideal / half-capacity / single-slot, Colibri,
// and the LRSC baseline. The paper's "LRSCwait128" on 256 cores is the
// half-capacity point, so the spec scales as nCores/2.
func Fig3Specs(nCores int) []HistSpec {
	waitQueue := func(slots int) Policy {
		p := PaperPolicy(platform.PolicyWaitQueue)
		p.QueueCap = slots
		return p
	}
	return []HistSpec{
		{Name: "amoadd", Variant: kernels.HistAmoAdd, Policy: PaperPolicy(platform.PolicyPlain)},
		{Name: "lrscwait-ideal", Variant: kernels.HistLRSCWait, Policy: PaperPolicy(platform.PolicyWaitQueue)},
		{Name: fmt.Sprintf("lrscwait-%d", nCores/2), Variant: kernels.HistLRSCWait, Policy: waitQueue(nCores / 2)},
		{Name: "lrscwait-1", Variant: kernels.HistLRSCWait, Policy: waitQueue(1)},
		{Name: "colibri", Variant: kernels.HistLRSCWait, Policy: PaperPolicy(platform.PolicyColibri)},
		{Name: "lrsc", Variant: kernels.HistLRSC, Policy: PaperPolicy(platform.PolicyLRSCSingle)},
	}
}

// Fig4Specs returns the curves of Fig. 4: raw Colibri against the lock
// implementations (spin locks with 128-cycle backoff, plus the Mwait MCS
// lock) and raw LRSC.
func Fig4Specs() []HistSpec {
	return []HistSpec{
		{Name: "colibri", Variant: kernels.HistLRSCWait, Policy: PaperPolicy(platform.PolicyColibri)},
		{Name: "colibri-lock", Variant: kernels.HistLockLRSCWait, Policy: PaperPolicy(platform.PolicyColibri)},
		{Name: "mwait-lock", Variant: kernels.HistLockMCSMwait, Policy: PaperPolicy(platform.PolicyColibri)},
		{Name: "lrsc", Variant: kernels.HistLRSC, Policy: PaperPolicy(platform.PolicyLRSCSingle)},
		{Name: "lrsc-lock", Variant: kernels.HistLockLRSC, Policy: PaperPolicy(platform.PolicyLRSCSingle)},
		{Name: "amoadd-lock", Variant: kernels.HistLockTicket, Policy: PaperPolicy(platform.PolicyLRSCSingle)},
	}
}

// HistPoint is one measurement: updates/cycle at a contention level.
type HistPoint struct {
	Bins       int
	Throughput float64
	Activity   platform.Activity
}

// newHistogram builds a system running the endless histogram of spec
// under spec.Policy, its data allocated from l.
func newHistogram(spec HistSpec, topo noc.Topology, bins int, l *platform.Layout) *platform.System {
	lay := kernels.NewHistLayout(l, bins, topo.NumCores())
	prog := kernels.HistogramProgram(spec.Variant, lay, spec.Policy.Backoff, 0)
	return platform.New(spec.Policy.Config(topo), platform.SameProgram(prog))
}

// RunHistogramPoint measures one (spec, bins) point under spec.Policy.
// The policy-grid sweeps overlay a grid coordinate on spec.Policy first.
func RunHistogramPoint(spec HistSpec, topo noc.Topology, bins, warmup, measure int) HistPoint {
	sys := newHistogram(spec, topo, bins, platform.NewLayout(0))
	act := sys.Measure(warmup, measure)
	sys.PublishObs(obs.Default())
	return HistPoint{Bins: bins, Throughput: act.Throughput(), Activity: act}
}

// TopoByName maps a scale name to a topology: "terapool" (1024 cores,
// the Bertuletti et al. scale-up), "mempool" (256 cores, the paper's
// platform), "medium" (64) or "small" (16). Unknown names return
// ok=false.
func TopoByName(name string) (noc.Topology, bool) {
	switch name {
	case "terapool", "1024":
		return noc.TeraPool1024(), true
	case "mempool", "256":
		return noc.MemPool256(), true
	case "medium", "64":
		return noc.Medium(), true
	case "small", "16":
		return noc.Small(), true
	}
	return noc.Topology{}, false
}

// StandardBins returns the paper's bin sweep 1..1024 clipped to the
// number of banks of the topology (bins live in distinct words).
func StandardBins(topo noc.Topology) []int {
	var bins []int
	for b := 1; b <= 1024 && b <= topo.NumBanks(); b *= 2 {
		bins = append(bins, b)
	}
	return bins
}
