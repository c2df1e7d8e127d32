// Package platform assembles the full MemPool-class system: cores behind
// Colibri Qnodes, the two-network fabric, and adapter-equipped SPM banks.
// It drives the cycle loop and takes activity snapshots for the
// throughput, fairness and energy evaluations.
package platform

import (
	"sync"

	"repro/internal/bus"
	"repro/internal/colibri"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
)

// Config describes a system instance.
type Config struct {
	Topo noc.Topology
	// FIFODepth is the capacity of every fabric FIFO stage (default 2).
	FIFODepth int
	// Policy names the registered bank synchronization policy (see
	// RegisterPolicy / PolicyNames). Empty selects PolicyPlain.
	Policy PolicyKind
	// PolicyParams configures the policy instance (QueueCap for
	// lrscwait, ColibriQueues for colibri); the zero value selects the
	// defaults.
	PolicyParams PolicyParams
	// Partitions is ignored: every System runs on the calling
	// goroutine. It remains only because the benchmark module sets it;
	// delete with the next benchmark change (ROADMAP item 8).
	Partitions int
}

// PartitionsAuto is ignored like every Partitions value. It remains
// only because the benchmark module names it; delete with the next
// benchmark change (ROADMAP item 8).
const PartitionsAuto = -1

// bankWords is each bank's storage capacity in words.
const bankWords = 1024

// MemoryWords returns the capacity of topo's memory in words.
func MemoryWords(topo noc.Topology) int { return topo.NumBanks() * bankWords }

// MemPoolConfig returns the paper's 256-core evaluation configuration with
// the given policy.
func MemPoolConfig(policy PolicyKind) Config {
	return Config{Topo: noc.MemPool256(), Policy: policy}
}

// SmallConfig returns a 16-core configuration for tests.
func SmallConfig(policy PolicyKind) Config {
	return Config{Topo: noc.Small(), Policy: policy}
}

// ProgramFor supplies each core's program (and may return the same program
// for every core).
type ProgramFor func(core int) *isa.Program

// SameProgram runs one program on every core.
func SameProgram(p *isa.Program) ProgramFor {
	return func(int) *isa.Program { return p }
}

// fifoSink adapts an engine FIFO to colibri.ReqSink.
type fifoSink struct{ f *engine.FIFO[bus.Request] }

func (s fifoSink) TryPush(r bus.Request) bool { return s.f.Push(r) }

// System is a fully wired simulation instance.
//
// The cycle loop is activity-driven: Tick walks only the components that
// can make progress this cycle (see kernel.go), and Run / RunUntilHalted
// fast-forward the clock across globally idle spans. Sleeping cores
// therefore cost nothing per cycle — the simulator-side mirror of the
// paper's polling-free LRwait/Mwait design. TickDense is the retained
// dense reference loop for differential testing.
type System struct {
	Cfg   Config
	Clock engine.Clock
	// Policy is the resolved, fully configured policy instance the
	// banks' adapters were built from.
	Policy Policy
	Fabric *noc.Fabric
	Banks  []*mem.Bank
	Cores  []*cpu.Core
	Qnodes []*colibri.Qnode

	// nRouters caches Fabric.NumRouters() for Kernel accounting.
	nRouters int
	// reporters are the bank adapters that implement
	// mem.StatsReporter, resolved once in New so that walk does not
	// type-assert every adapter on every Snapshot.
	reporters []mem.StatsReporter

	// Kernel counts what the activity-driven scheduler did — components
	// ticked per phase, parks, fast-forward spans — with plain per-System
	// increments. PublishObs pushes deltas into an obs.Registry on the
	// cold path; per-Tick atomics would dwarf an idle cycle's cost.
	Kernel KernelStats
	kernel

	// pubMu serializes PublishObs (its delta bookkeeping in lastPub must
	// not interleave when concurrent runs publish the same System, or
	// different Systems publish into one registry from racing sweeps).
	pubMu sync.Mutex
	// lastPub is the counter record already published by PublishObs.
	lastPub counters
}

// KernelStats is the scheduler's own activity accounting, per executed
// Tick (fast-forwarded cycles never reach Tick and are counted in
// FFSpans/FFCyclesSaved instead). Skipped counts are derived at publish
// time as Ticks×population − ticked, keeping the hot path to one add
// per phase.
type KernelStats struct {
	// Ticks counts executed scheduled Tick calls.
	Ticks uint64
	// SlotsTicked counts core-slot (Qnode+Core) visits.
	SlotsTicked uint64
	// RoutersTicked counts dirty-router visits across both networks.
	RoutersTicked uint64
	// BanksTicked counts visits to banks with queued work.
	BanksTicked uint64
	// DelivTicked counts response-delivery visits.
	DelivTicked uint64
	// Parks counts cores taken off the schedule (quiescent or in PAUSE).
	Parks uint64
	// FFSpans and FFCyclesSaved count globally idle spans the clock
	// jumped across instead of simulating, and the cycles so skipped.
	FFSpans       uint64
	FFCyclesSaved uint64
}

// New builds a system with every core running progFor(core). The
// configured policy is resolved through the registry; an unregistered
// name or invalid parameter set panics, like an invalid topology.
func New(cfg Config, progFor ProgramFor) *System {
	if err := cfg.Topo.Validate(); err != nil {
		panic(err)
	}
	if cfg.FIFODepth <= 0 {
		cfg.FIFODepth = 2
	}
	pol, err := ResolvePolicy(cfg.Policy, cfg.PolicyParams, cfg.Topo)
	if err != nil {
		panic(err)
	}
	s := &System{Cfg: cfg, Policy: pol}
	topo := cfg.Topo
	s.Fabric = noc.NewFabric(topo, &s.Clock, cfg.FIFODepth)
	s.nRouters = s.Fabric.NumRouters()

	nBanks := topo.NumBanks()
	nCores := topo.NumCores()
	s.Banks = make([]*mem.Bank, nBanks)
	for b := 0; b < nBanks; b++ {
		adapter := pol.NewAdapter(BankContext{
			BankID: b, NumBanks: nBanks, NumCores: nCores, Topo: topo,
		})
		s.Banks[b] = mem.NewBank(b, nBanks, bankWords, adapter,
			s.Fabric.BankReq[b], s.Fabric.BankResp[b])
		if sr, ok := adapter.(mem.StatsReporter); ok {
			s.reporters = append(s.reporters, sr)
		}
	}

	s.Cores = make([]*cpu.Core, nCores)
	s.Qnodes = make([]*colibri.Qnode, nCores)
	for c := 0; c < nCores; c++ {
		s.Qnodes[c] = colibri.NewQnode(c, fifoSink{s.Fabric.CoreReq[c]})
		prog := progFor(c)
		s.Cores[c] = cpu.New(c, nCores, &s.Clock, s.Qnodes[c], prog)
	}

	s.initKernel()
	return s
}

// TickDense advances the whole system by one cycle the original way:
// every Qnode, core, router and bank is ticked unconditionally. It is
// the dense reference loop retained for differential testing of the
// activity-driven Tick (and for measuring its speedup); drive any one
// System exclusively through either Tick or TickDense, not a mix, since
// the dense loop does not maintain the scheduler's parking state.
func (s *System) TickDense() {
	for i, c := range s.Cores {
		s.Qnodes[i].Tick()
		c.Tick()
	}
	s.Fabric.Tick()
	for _, b := range s.Banks {
		b.Tick()
	}
	for i := range s.Cores {
		if resp, ok := s.Fabric.CoreResp[i].Pop(); ok {
			if out, ok := s.Qnodes[i].Deliver(resp); ok {
				s.Cores[i].Deliver(out)
			}
		}
	}
	s.Clock.Advance()
}

// RunDense advances n cycles through the dense reference loop.
func (s *System) RunDense(n int) {
	for i := 0; i < n; i++ {
		s.TickDense()
	}
}

// AllHalted reports whether every core has executed HALT.
func (s *System) AllHalted() bool {
	for _, c := range s.Cores {
		if !c.Halted() {
			return false
		}
	}
	return true
}

// Quiescent reports whether no message is in flight anywhere — fabric,
// banks, and the Qnodes' protocol state: a Qnode holding an open episode
// (an undrained wake-up, a pending grant, a linked successor) represents
// buffered traffic even when every FIFO is empty.
func (s *System) Quiescent() bool {
	if s.Fabric.InFlight() != 0 {
		return false
	}
	for _, b := range s.Banks {
		if !b.Idle() {
			return false
		}
	}
	for _, n := range s.Qnodes {
		if !n.Idle() {
			return false
		}
	}
	return true
}

// SyncStats reconciles the lazily-accounted wait counters of every
// parked core up to the last completed cycle. Snapshot calls it; callers
// reading core Stats fields directly (e.g. the trace sampler) must call
// it first to observe cycle-exact counters.
func (s *System) SyncStats() {
	for _, c := range s.Cores {
		c.SyncStats()
	}
}

// bankFor returns the bank holding addr.
func (s *System) bankFor(addr uint32) *mem.Bank {
	return s.Banks[s.Cfg.Topo.BankOfAddr(addr)]
}

// WriteWord initializes a memory word directly (zero simulated time).
func (s *System) WriteWord(addr, v uint32) { s.bankFor(addr).Poke(addr, v) }

// ReadWord reads a memory word directly (zero simulated time).
func (s *System) ReadWord(addr uint32) uint32 { return s.bankFor(addr).Peek(addr) }
