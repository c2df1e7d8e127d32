// Package lrscwait is a library-level reproduction of "LRSCwait: Enabling
// Scalable and Efficient Synchronization in Manycore Systems through
// Polling-Free and Retry-Free Operation" (Riedel et al., DATE 2024).
//
// It bundles a deterministic cycle-accurate simulator of a MemPool-class
// manycore (cores, hierarchical NoC, SPM banks), the paper's LRwait /
// SCwait / Mwait primitives with a registry of hardware reservation
// policies (single-slot LRSC, reservation table, LRSCwait queues, and
// the Colibri distributed queue built in — custom primitives register
// through RegisterPolicy), an assembler for benchmark kernels, and the
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	cfg := lrscwait.MemPoolConfig(lrscwait.PolicyColibri)
//	prog := ...                                 // build with NewProgram
//	sys := lrscwait.NewSystem(cfg, lrscwait.SameProgram(prog))
//	sys.RunUntilHalted(1_000_000)
//
// See examples/ for runnable programs (examples/custompolicy defines a
// new synchronization primitive end to end) and cmd/sweep for the
// evaluation front end.
//
// The facade exports what those programs reach: building and running a
// System, registering a policy or a scenario, and running sweeps. The
// rest of the machinery is driven through cmd/sweep.
//
// # Observability
//
// Every layer reports into one process-wide metrics registry: the
// kernel publishes per-phase ticked/skipped counts, fast-forward
// savings and per-policy bank traffic through System.PublishObs, and
// the sweep engine adds cache traffic and histograms of each point's
// run time and queue wait. SweepStats
// carries a run's metric delta. Instrumentation is observation-only —
// results are byte-identical with or without it. `sweep -obs` dumps the
// registry, `-manifest` records a run's full context as JSON, and
// `-trace` renders its timeline for chrome://tracing.
//
// # Sweep service
//
// `sweep serve` runs the sweep engine as an HTTP service that answers
// figure and table requests byte-identically to the CLI emitters,
// coalesces concurrent identical requests and serves conditional
// requests via cache-key ETags. `sweep worker -join URL` adds compute
// workers that lease grid points and publish results through the shared
// cache, and `-backend http=URL|tiered=URL` reads another node's cache.
// Each simulated system runs on one thread; a sweep's points run
// concurrently. Distribution never changes results.
package lrscwait

import (
	"repro/internal/area"
	"repro/internal/bus"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/patterns"
	"repro/internal/platform"
	"repro/internal/sweep"
)

// Re-exported core types. The facade keeps downstream users off the
// internal packages.
type (
	// Topology describes cores/banks/tiles/groups.
	Topology = noc.Topology
	// Config selects topology and reservation policy for a System.
	Config = platform.Config
	// System is a fully wired simulation instance.
	System = platform.System
	// Activity is a snapshot of system activity counters.
	Activity = platform.Activity
	// PolicyKind selects the per-bank atomics adapter.
	PolicyKind = platform.PolicyKind
	// Program is an assembled kernel.
	Program = isa.Program
	// Builder assembles Programs.
	Builder = isa.Builder
	// Layout allocates kernel data sections.
	Layout = platform.Layout
	// EnergyParams holds the per-event energy model constants.
	EnergyParams = energy.Params
	// AreaModel holds the Table I area model constants.
	AreaModel = area.Model
)

// ABI register aliases for kernel construction.
const (
	Zero = isa.Zero
	T0   = isa.T0
	T1   = isa.T1
	T2   = isa.T2
	T3   = isa.T3
	T4   = isa.T4
	A0   = isa.A0
	A1   = isa.A1
	S0   = isa.S0
	S1   = isa.S1
	S2   = isa.S2
)

// Built-in reservation policy names. Any registered name — these or a
// custom policy's — is a valid Config.Policy value; PolicyNames lists
// them all.
const (
	// PolicyLRSCSingle is MemPool's single reservation slot per bank.
	PolicyLRSCSingle = platform.PolicyLRSCSingle
	// PolicyColibri is the paper's distributed reservation queue.
	PolicyColibri = platform.PolicyColibri
)

// Open Policy API: the synchronization-primitive space is a registry,
// exactly like the scenario space. A custom primitive implements Policy
// (name, parameter normalization, per-bank adapter construction) with an
// Adapter holding the memory-side semantics, registers through
// RegisterPolicy, and is from then on addressable from Config.Policy,
// the cmd -policy flags and the sweep engine's policy grid axis — with
// litmus-grade sequential consistency, activity accounting and energy
// attribution inherited from the platform. See examples/custompolicy for
// an end-to-end walkthrough (the NB-FEB primitive of Ha, Tsigas &
// Anshus).
type (
	// Policy is one registrable synchronization-primitive family.
	Policy = platform.Policy
	// PolicyParams is the parameter set a policy instance is configured
	// from (Config.PolicyParams): the lrscwait QueueCap and the colibri
	// ColibriQueues. A policy reads the fields that apply to it.
	PolicyParams = platform.PolicyParams
	// BankContext is what a Policy sees of the machine when
	// instantiating one bank's adapter.
	BankContext = platform.BankContext
	// Adapter implements the memory-side semantics of every operation
	// at one bank (the object a Policy's NewAdapter returns). Its one
	// method, Handle(req, s, out), appends the request's responses to
	// out and returns the result; the bank reuses that buffer for its
	// next request, so an adapter keeps neither out nor the result.
	Adapter = mem.Adapter
	// Storage is the adapter's view of its bank's word array.
	Storage = mem.Storage
	// AdapterStats is the shared policy-event counter set an Adapter
	// may expose through an AdapterStats() method to feed
	// System.PolicyStats.
	AdapterStats = mem.AdapterStats
	// Request is a core-to-memory message handled by an Adapter.
	Request = bus.Request
	// Response is a memory-to-core message emitted by an Adapter.
	Response = bus.Response
	// PolicyEnergyWeights is the optional Policy hook supplying
	// policy-specific energy model constants (EnergyWeights() method).
	PolicyEnergyWeights = energy.PolicyWeights
	// PolicyAreaRows is the optional Policy hook contributing Table I
	// area rows (AreaRows(model, nCores) method).
	PolicyAreaRows = area.PolicyRows
	// AreaRow is one Table I line (for PolicyAreaRows implementations).
	AreaRow = area.Row
)

// The reservation operations an Adapter must handle itself; HandleBasic
// covers loads, stores and the AMOs. An adapter without Colibri queues
// drops the wake-ups (Request.Op.IsWakeUp) and answers everything else
// with Request.Reply.
const (
	OpLR     = bus.LR
	OpSC     = bus.SC
	OpLRWait = bus.LRWait
	OpSCWait = bus.SCWait
	OpMWait  = bus.MWait
)

// RegisterPolicy adds a custom policy to the platform registry, making
// it addressable from Config.Policy, the cmd -policy flags and the
// sweep policy grid exactly like the built-ins. A duplicate, empty or
// cache-key-unsafe name is rejected.
func RegisterPolicy(p Policy) error { return platform.RegisterPolicy(p) }

// PolicyNames returns every registered policy name, sorted.
func PolicyNames() []string { return platform.PolicyNames() }

// LookupPolicy returns the policy prototype registered under name.
func LookupPolicy(name string) (Policy, bool) { return platform.LookupPolicy(name) }

// ResolvePolicy resolves a policy name and parameter set into a fully
// configured instance on topo (what NewSystem does internally).
func ResolvePolicy(name PolicyKind, params PolicyParams, topo Topology) (Policy, error) {
	return platform.ResolvePolicy(name, params, topo)
}

// HandleBasic implements the Load/Store/AMO semantics shared by every
// adapter. It returns the one response instead of appending it, and
// reports whether it handled the request and whether memory was written,
// so a custom adapter's Handle runs its invalidation hooks and then
// appends resp to out.
func HandleBasic(req Request, s Storage) (resp Response, wrote, handled bool) {
	return mem.HandleBasic(req, s)
}

// MemPool256 returns the paper's 256-core, 1024-bank topology.
func MemPool256() Topology { return noc.MemPool256() }

// MediumTopology returns a quarter-scale MemPool (64 cores).
func MediumTopology() Topology { return noc.Medium() }

// SmallTopology returns a 16-core test topology.
func SmallTopology() Topology { return noc.Small() }

// MemPoolConfig returns the paper's evaluation configuration with the
// given policy.
func MemPoolConfig(policy PolicyKind) Config { return platform.MemPoolConfig(policy) }

// NewSystem builds a system running progFor(core) on each core.
func NewSystem(cfg Config, progFor func(core int) *Program) *System {
	return platform.New(cfg, progFor)
}

// SameProgram runs one program on every core.
func SameProgram(p *Program) func(int) *Program { return platform.SameProgram(p) }

// NewProgram returns an empty program builder.
func NewProgram() *Builder { return isa.NewBuilder() }

// NewLayout returns a bump allocator for kernel data starting at startWord.
func NewLayout(startWord uint32) *Layout { return platform.NewLayout(startWord) }

// Disassemble renders a program as text.
func Disassemble(p *Program) string { return isa.Disassemble(p) }

// DefaultEnergy returns the calibrated energy model.
func DefaultEnergy() EnergyParams { return energy.Default() }

// PolicyConfig is the explicit per-point policy configuration: the
// registered policy Kind, its embedded PolicyParams (QueueCap,
// ColibriQueues) and Backoff. It is the one description of the policy a
// point runs under; every curve spec carries one, and Config assembles
// the platform configuration from it. A ScenarioCurve names its
// baseline PolicyConfig, and the sweep engine overlays each policy-grid
// coordinate on it. Backoff is literal cycles, so the zero value runs
// without backoff; the paper's specs use 128.
type PolicyConfig = experiments.Policy

// TableI evaluates the area model on the published configurations.
func TableI(nCores int) []AreaRow { return area.TableI(area.Default(), nCores) }

// StandardBins returns the paper's bin sweep clipped to the topology.
func StandardBins(topo Topology) []int { return experiments.StandardBins(topo) }

// Sweep engine re-exports: the parallel orchestration layer that fans
// independent simulation points across a worker pool with disk caching
// (see cmd/sweep for the command-line front end). Experiments are open:
// any Scenario registered with RegisterScenario — built-in or defined by
// a library user — is addressable by SweepJob.Kind and gets the worker
// pool, policy grids, caching and every emitter for free (see
// examples/customscenario for an end-to-end walkthrough).
type (
	// SweepJob declares one scenario sweep (kind × topology × params).
	SweepJob = sweep.Job
	// SweepRunner executes jobs on a worker pool with optional caching.
	SweepRunner = sweep.Runner
	// SweepResult is the assembled, deterministic output of one job.
	SweepResult = sweep.Result
	// SweepPoint is one measurement of a series: a coordinate plus named
	// metrics (well-known fields or free-form Extra entries), accessed
	// uniformly through Metric/SetMetric/Metrics.
	SweepPoint = sweep.Point
	// SweepGrid bundles the policy-grid axes (Policies × QueueCaps ×
	// ColibriQueues × Backoffs) as parsed from the cmd/sweep -grid and
	// -policy flags. SweepJob embeds it: set a job's axes with
	// job.Grid = g, or with Grid: SweepGrid{...} in a literal.
	SweepGrid = sweep.Grid
	// SweepCache memoizes finished points on disk.
	SweepCache = sweep.Cache
	// SweepStats summarizes executed vs cached points of a run,
	// including per-point timings, worker utilization and the
	// run-scoped metric snapshot (Metrics).
	SweepStats = sweep.RunStats
	// Scenario is one registrable experiment: a named workload the
	// engine expands into curves of independently scheduled points. The
	// built-in kinds implement it; custom workloads implement it and
	// call RegisterScenario; a job setting a field outside its Reads is
	// refused. Optional methods: Description() string for cmd/sweep
	// -list-kinds, and Finalize(*SweepResult) for cross-point derived
	// values (computed after caching, never fed back into it).
	Scenario = sweep.Scenario
	// SweepField is a set of SweepJob's optional fields (Scenario.Reads).
	SweepField = sweep.Field
	// ScenarioCurve is one logical series of a scenario: a name, its
	// baseline PolicyConfig, what its code Needs of the policy, and the
	// per-point hooks. The engine overlays each grid coordinate on the
	// baseline once per series: Key receives that effective policy's
	// KeyFragment as a string, Run the effective policy itself. Needs
	// is the set of reservation classes the code can make progress with
	// (HistVariant.Needs answers it for a histogram kernel); a
	// coordinate whose policy serves none of them is not run, only
	// named in SweepResult.NotRun and the table's "not run:" notes.
	ScenarioCurve = sweep.Curve
)

// The optional SweepJob fields a Scenario's Reads can declare.
const (
	FieldBins    = sweep.FieldBins    // Bins
	FieldWindows = sweep.FieldWindows // Warmup and Measure
	FieldMatN    = sweep.FieldMatN    // MatN
	FieldCores   = sweep.FieldCores   // Cores
	FieldGrid    = sweep.FieldGrid    // the policy-grid axes
	FieldParams  = sweep.FieldParams  // Params
)

// MetricThroughput is the well-known throughput metric name
// (SweepPoint.Metric / SetMetric); any name outside the engine's
// reserved set is a scenario-defined Extra metric.
const MetricThroughput = sweep.MetricThroughput

// ParseSweepGrid parses the -grid flag syntax, e.g.
// "policy=lrsc,colibri queuecap=0,1,2,4 colibriq=2,4,8 backoff=0,64".
func ParseSweepGrid(s string) (SweepGrid, error) { return sweep.ParseGrid(s) }

// Built-in scenario kinds. Scenarios lists every registered kind,
// including custom ones and the paper figures not named here.
const (
	KindFig3    = sweep.Fig3
	KindTableI  = sweep.TableI
	KindTableII = sweep.TableII
	// KindBarrier is the synchronization-pattern suite's barrier sweep
	// (central / tree / butterfly barriers × spin / backoff / Mwait
	// waiters).
	KindBarrier = patterns.KindBarrier
)

// PatternParamWait is the pattern scenarios' SweepJob.Params key
// selecting waiter strategies, e.g. "spin,mwait" (default: all three).
const PatternParamWait = patterns.ParamWait

// RegisterScenario adds a custom scenario to the sweep registry, making
// it addressable from SweepJob.Kind exactly like the built-in kinds —
// with the worker pool, policy grids, disk cache and all emitters. A
// duplicate or empty name is rejected.
func RegisterScenario(s Scenario) error { return sweep.Register(s) }

// Scenarios returns every registered scenario name, sorted.
func Scenarios() []string { return sweep.Names() }

// LookupScenario returns the scenario registered under name.
func LookupScenario(name string) (Scenario, bool) { return sweep.Lookup(name) }

// OpenSweepCache opens the point cache rooted at dir ("" selects
// ~/.cache/lrscwait or the platform equivalent).
func OpenSweepCache(dir string) (*SweepCache, error) { return sweep.OpenCache(dir) }

// RunSweeps executes jobs through one shared worker pool, GOMAXPROCS
// wide, without caching. Use a SweepRunner directly for cache and
// progress control.
func RunSweeps(jobs ...SweepJob) ([]*SweepResult, SweepStats, error) {
	var r SweepRunner
	return r.RunAll(jobs)
}

// Histogram kernel construction for library users.
type (
	// HistVariant selects the histogram update primitive.
	HistVariant = kernels.HistVariant
	// HistLayout places the histogram data sections.
	HistLayout = kernels.HistLayout
)

// Histogram variants: the retry-based LR/SC update and the paper's
// polling-free LRwait/SCwait update.
const (
	HistLRSC     = kernels.HistLRSC
	HistLRSCWait = kernels.HistLRSCWait
)

// NewHistLayout allocates histogram sections from l.
func NewHistLayout(l *Layout, numBins, nCores int) HistLayout {
	return kernels.NewHistLayout(l, numBins, nCores)
}

// HistogramProgram builds the histogram kernel.
func HistogramProgram(v HistVariant, lay HistLayout, backoff int32, iters int) *Program {
	return kernels.HistogramProgram(v, lay, backoff, iters)
}

// HistogramSum totals the bins after a run.
func HistogramSum(sys *System, lay HistLayout) uint64 {
	return kernels.HistogramSum(sys, lay)
}
