package experiments

import (
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/platform"
)

// Fig. 6: concurrent-queue throughput and fairness as the number of
// participating cores grows.

// QueueSpec pairs a queue software variant with the policy it runs
// under. MS selects the linked Michael–Scott queue (the paper's data
// structure) instead of the fetch-and-add ring; the Variant then only
// distinguishes the LRSC and LRSCwait CAS flavours. The paper's Fig. 6
// specs run under PaperPolicy (128-cycle backoff, default Colibri queue
// count).
type QueueSpec struct {
	Name    string
	Variant kernels.QueueVariant
	MS      bool
	Policy  Policy
}

// Fig6Specs returns the three curves of Fig. 6 on the fetch-and-add ring.
func Fig6Specs() []QueueSpec {
	return []QueueSpec{
		{Name: "colibri", Variant: kernels.QueueLRSCWait, Policy: PaperPolicy(platform.PolicyColibri)},
		{Name: "amoadd-lock", Variant: kernels.QueueLockTicket, Policy: PaperPolicy(platform.PolicyLRSCSingle)},
		{Name: "lrsc", Variant: kernels.QueueLRSC, Policy: PaperPolicy(platform.PolicyLRSCSingle)},
	}
}

// Fig6MSSpecs returns the Fig. 6 curves on the linked Michael–Scott
// queue (no lock-based variant: the paper's lock queue uses atomic adds,
// which the ring version covers).
func Fig6MSSpecs() []QueueSpec {
	return []QueueSpec{
		{Name: "colibri-ms", Variant: kernels.QueueLRSCWait, Policy: PaperPolicy(platform.PolicyColibri), MS: true},
		{Name: "amoadd-lock", Variant: kernels.QueueLockTicket, Policy: PaperPolicy(platform.PolicyLRSCSingle)},
		{Name: "lrsc-ms", Variant: kernels.QueueLRSC, Policy: PaperPolicy(platform.PolicyLRSCSingle), MS: true},
	}
}

// QueuePoint is one Fig. 6 measurement, with the fairness band (slowest /
// fastest active core, in ops per cycle) that the paper shades.
type QueuePoint struct {
	Cores      int
	Throughput float64
	MinPerCore float64
	MaxPerCore float64
	Activity   platform.Activity
}

// RunQueuePoint measures queue accesses/cycle with nActive cores
// working, under spec.Policy.
func RunQueuePoint(spec QueueSpec, topo noc.Topology, nActive, warmup, measure int) QueuePoint {
	nCores := topo.NumCores()
	if nActive > nCores {
		nActive = nCores
	}
	l := platform.NewLayout(0)
	idle := isa.HaltProgram()
	var queueProg platform.ProgramFor
	var initQueue func(*platform.System)
	if spec.MS {
		lay := kernels.NewMSLayout(l, nCores, 4)
		queueProg = kernels.MSQueueProgram(spec.Variant == kernels.QueueLRSCWait,
			lay, spec.Policy.Backoff, 0)
		initQueue = func(sys *platform.System) { kernels.InitMSQueue(sys, lay) }
	} else {
		lay := kernels.NewQueueLayout(l, nCores, 2*nActive)
		queueProg = kernels.QueueProgram(spec.Variant, lay, spec.Policy.Backoff, 0)
		initQueue = func(sys *platform.System) { kernels.InitQueue(sys, lay) }
	}
	sys := platform.New(spec.Policy.Config(topo), func(core int) *isa.Program {
		if core < nActive {
			return queueProg(core)
		}
		return idle
	})
	initQueue(sys)
	act := sys.Measure(warmup, measure)
	sys.PublishObs(obs.Default())

	p := QueuePoint{Cores: nActive, Throughput: act.Throughput(), Activity: act}
	p.MinPerCore, p.MaxPerCore = act.Band(nActive)
	return p
}

// Fig6Counts returns the swept active-core counts: powers of two up to
// the topology's core count.
func Fig6Counts(topo noc.Topology) []int {
	var counts []int
	for n := 1; n <= topo.NumCores(); n *= 2 {
		counts = append(counts, n)
	}
	return counts
}
