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
// # Observability
//
// Every layer reports into one process-wide metrics registry
// (ObsDefault): the kernel publishes per-phase ticked/skipped counts,
// fast-forward savings and per-policy bank traffic through
// System.PublishObs; the sweep engine adds cache traffic and per-point
// timers. Instrumentation is observation-only — results are
// byte-identical with or without it. Run-scoped views come from
// ObsDiff of two snapshots (SweepStats.Metrics is exactly that);
// NewRunManifest records a sweep's full run context as JSON and
// WriteSweepTrace renders its timeline for chrome://tracing. Custom
// scenarios and policies mint their own metrics under their own prefix
// via ObsDefault().Counter("mypkg.thing").
//
// # Sweep service
//
// The sweep engine also runs as a network service. Its point store is
// a pluggable SweepBackend — the disk SweepCache, a SweepRemote
// speaking another node's HTTP cache API (with retries and graceful
// degradation to local compute), or a SweepTiered combining both. A
// SweepServer (CLI: `sweep serve`) answers GET /v1/kind/{name}
// requests byte-identically to the CLI emitters, deduplicates
// concurrent identical requests through singleflight, serves
// conditional requests via cache-key ETags, and coordinates
// SweepWorkers (CLI: `sweep worker -join`) that lease grid points and
// publish results through the shared backend. Distribution never
// changes results — the same deterministic assembly runs everywhere.
package lrscwait

import (
	"net/http"
	"time"

	"repro/internal/area"
	"repro/internal/bus"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/locks"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/patterns"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Re-exported core types. The facade keeps downstream users off the
// internal packages while exposing the full simulator API.
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
	// Reg is an ISA register.
	Reg = isa.Reg
	// Layout allocates kernel data sections.
	Layout = platform.Layout
	// EnergyParams holds the per-event energy model constants.
	EnergyParams = energy.Params
	// AreaModel holds the Table I area model constants.
	AreaModel = area.Model
)

// PartitionsAuto, as Config.Partitions or SetDefaultPartitions value,
// shards each system adaptively: it starts on one partition, measures
// the average per-cycle component activity, and repartitions mid-run to
// as many partitions (capped at min(GOMAXPROCS, tiles)) as the measured
// work can amortize — cold or small systems stay on one partition. Any
// partition count produces bit-identical results; it is purely a
// wall-clock knob.
const PartitionsAuto = platform.PartitionsAuto

// SetDefaultPartitions sets the process-wide default kernel partition
// count used when Config.Partitions is zero (0 restores the
// one-partition default).
func SetDefaultPartitions(p int) { platform.SetDefaultPartitions(p) }

// ABI register aliases for kernel construction.
const (
	Zero = isa.Zero
	RA   = isa.RA
	T0   = isa.T0
	T1   = isa.T1
	T2   = isa.T2
	T3   = isa.T3
	T4   = isa.T4
	A0   = isa.A0
	A1   = isa.A1
	A2   = isa.A2
	A3   = isa.A3
	S0   = isa.S0
	S1   = isa.S1
	S2   = isa.S2
	S3   = isa.S3
	S4   = isa.S4
)

// The built-in reservation policy names. Any registered name — these or
// a custom policy's — is a valid Config.Policy value; PolicyNames lists
// them all.
const (
	// PolicyPlain has no reservation support (AMO-only baselines).
	PolicyPlain = platform.PolicyPlain
	// PolicyLRSCSingle is MemPool's single reservation slot per bank.
	PolicyLRSCSingle = platform.PolicyLRSCSingle
	// PolicyLRSCTable is an ATUN-style per-core reservation table.
	PolicyLRSCTable = platform.PolicyLRSCTable
	// PolicyWaitQueue is the LRSCwait_q hardware queue (ideal unless the
	// ParamQueueCap policy parameter caps it).
	PolicyWaitQueue = platform.PolicyWaitQueue
	// PolicyColibri is the paper's distributed reservation queue.
	PolicyColibri = platform.PolicyColibri
)

// The shared policy parameter keys: the policy-grid axes every policy
// accepts (and ignores when inapplicable) in Config.PolicyParams.
const (
	// ParamQueueCap is the WaitQueue slot count (0 = ideal).
	ParamQueueCap = platform.ParamQueueCap
	// ParamColibriQ is the Colibri head/tail pair count (0 = default 4).
	ParamColibriQ = platform.ParamColibriQ
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
	// PolicyParams is the free-form parameter set a policy instance is
	// configured from (Config.PolicyParams; it offers Int and Check
	// helpers for Normalize implementations).
	PolicyParams = platform.PolicyParams
	// BankContext is what a Policy sees of the machine when
	// instantiating one bank's adapter.
	BankContext = platform.BankContext
	// Adapter implements the memory-side semantics of every operation
	// at one bank (the object a Policy's NewAdapter returns).
	Adapter = mem.Adapter
	// Storage is the adapter's view of its bank's word array.
	Storage = mem.Storage
	// AdapterStats is the shared policy-event counter set an Adapter
	// may expose through the mem.StatsReporter AdapterStats() method to
	// feed System.PolicyStats.
	AdapterStats = mem.AdapterStats
	// Request is a core-to-memory message handled by an Adapter.
	Request = bus.Request
	// Response is a memory-to-core message emitted by an Adapter.
	Response = bus.Response
	// Op enumerates the memory operations a Request can carry.
	Op = bus.Op
	// PolicyEnergyWeights is the optional Policy hook supplying
	// policy-specific energy model constants (EnergyWeights() method).
	PolicyEnergyWeights = energy.PolicyWeights
	// PolicyAreaRows is the optional Policy hook contributing Table I
	// area rows (AreaRows(model, nCores) method).
	PolicyAreaRows = area.PolicyRows
	// AreaRow is one Table I line (for PolicyAreaRows implementations).
	AreaRow = area.Row
)

// The memory operations an Adapter must handle beyond OpLoad/OpStore and
// the AMOs (which HandleBasic covers).
const (
	OpLoad      = bus.Load
	OpStore     = bus.Store
	OpAmoAdd    = bus.AmoAdd
	OpAmoSwap   = bus.AmoSwap
	OpAmoAnd    = bus.AmoAnd
	OpAmoOr     = bus.AmoOr
	OpAmoXor    = bus.AmoXor
	OpAmoMin    = bus.AmoMin
	OpAmoMax    = bus.AmoMax
	OpAmoMinU   = bus.AmoMinU
	OpAmoMaxU   = bus.AmoMaxU
	OpLR        = bus.LR
	OpSC        = bus.SC
	OpLRWait    = bus.LRWait
	OpSCWait    = bus.SCWait
	OpMWait     = bus.MWait
	OpWakeUpReq = bus.WakeUpReq
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
// adapter. It reports whether it handled the request and whether memory
// was written, so custom adapters run their invalidation hooks and
// delegate everything non-reservation to it.
func HandleBasic(req Request, s Storage) (resp Response, wrote, handled bool) {
	return mem.HandleBasic(req, s)
}

// AmoALU applies an atomic read-modify-write operation and returns the
// new value to store.
func AmoALU(op Op, old, operand uint32) uint32 { return mem.AmoALU(op, old, operand) }

// MemPool256 returns the paper's 256-core, 1024-bank topology.
func MemPool256() Topology { return noc.MemPool256() }

// TeraPoolTopology returns the 1024-core, 4096-bank TeraPool scale-up
// (Bertuletti et al.).
func TeraPoolTopology() Topology { return noc.TeraPool1024() }

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

// DefaultArea returns the calibrated Table I area model.
func DefaultArea() AreaModel { return area.Default() }

// PolicyConfig is the explicit per-point policy configuration (the
// registered policy Kind plus QueueCap, ColibriQueues and backoff) that
// a scenario threads down to the platform; SweepGridCoord.Merge overlays
// a policy-grid coordinate on it. Whole figures/tables are regenerated
// through the sweep engine — RunSweeps(SweepJob{Kind: KindFig3, ...}) —
// which returns every experiment in the unified SweepSeries/SweepPoint
// measurement model (see cmd/sweep for the command-line front end).
type PolicyConfig = experiments.Policy

// TableI evaluates the area model on the published configurations.
func TableI(nCores int) []area.Row { return area.TableI(area.Default(), nCores) }

// StandardBins returns the paper's bin sweep clipped to the topology.
func StandardBins(topo Topology) []int { return experiments.StandardBins(topo) }

// Sweep engine re-exports: the parallel orchestration layer that fans
// independent simulation points across a worker pool with disk caching
// (see cmd/sweep for the unified CLI front end). Experiments are open:
// any Scenario registered with RegisterScenario — built-in or defined by
// a library user — is addressable by SweepJob.Kind and gets the worker
// pool, policy grids, caching and every emitter for free (see
// examples/customscenario for an end-to-end walkthrough).
type (
	// SweepJob declares one scenario sweep (kind × topology × params).
	SweepJob = sweep.Job
	// SweepKind names a registered scenario.
	SweepKind = sweep.Kind
	// SweepRunner executes jobs on a worker pool with optional caching.
	SweepRunner = sweep.Runner
	// SweepResult is the assembled, deterministic output of one job.
	SweepResult = sweep.Result
	// SweepSeries is one labelled curve of a result.
	SweepSeries = sweep.Series
	// SweepPoint is one measurement of a series: a coordinate plus named
	// metrics (well-known fields or free-form Extra entries), accessed
	// uniformly through Metric/SetMetric/Metrics.
	SweepPoint = sweep.Point
	// SweepGridCoord labels a series with its policy-grid coordinate;
	// its Merge method overlays the coordinate on a PolicyConfig.
	SweepGridCoord = sweep.GridCoord
	// SweepGrid bundles the policy-grid axes (Policies × QueueCaps ×
	// ColibriQueues × Backoffs) as parsed from the cmd/sweep -grid and
	// -policy flags.
	SweepGrid = sweep.Grid
	// SweepBackend is the pluggable point-store seam: anything with
	// content-keyed Get/Put (SweepCache, SweepRemote, SweepTiered or a
	// custom store) plugs into SweepRunner.Cache and the service fabric.
	SweepBackend = sweep.Backend
	// SweepCache memoizes finished points on disk (the "disk" backend).
	SweepCache = sweep.Cache
	// SweepCacheStats is a cache directory's disk footprint plus this
	// process's hit/miss traffic (SweepCache.Stats).
	SweepCacheStats = sweep.CacheStats
	// SweepCacheGCStats reports one SweepCache.GC pass: entries and
	// bytes scanned, evicted and remaining under the byte budget.
	SweepCacheGCStats = sweep.GCStats
	// SweepStats summarizes executed vs cached points of a run,
	// including per-point timings (Timings), worker utilization and the
	// run-scoped obs metric snapshot (Metrics).
	SweepStats = sweep.RunStats
	// SweepPointTiming records how one work unit of a run executed
	// (worker, start/duration, cache state) — observation-only data for
	// manifests and timelines.
	SweepPointTiming = sweep.PointTiming
	// RunManifest is the JSON run record emitted next to sweep results:
	// job spec hashes, environment, RunStats, metrics.
	RunManifest = sweep.Manifest
	// RunEnvironment captures the host a run executed on.
	RunEnvironment = sweep.Environment
	// TraceEvent is one Chrome trace-event timeline entry.
	TraceEvent = sweep.TraceEvent

	// Scenario is one registrable experiment: a named workload the
	// engine expands into curves of independently scheduled points. The
	// built-in kinds implement it; custom workloads implement it and
	// call RegisterScenario.
	Scenario = sweep.Scenario
	// ScenarioCurve is one logical series of a scenario: a name plus the
	// per-point cache-key and measurement hooks.
	ScenarioCurve = sweep.Curve
	// ScenarioDescriber is an optional Scenario extension supplying a
	// one-line summary shown by cmd/sweep -list-kinds; all built-ins
	// implement it.
	ScenarioDescriber = sweep.Describer
	// ScenarioFinalizer is an optional Scenario extension for
	// cross-point derived values (computed after caching, never fed back
	// into it).
	ScenarioFinalizer = sweep.Finalizer
	// ScenarioTableRenderer is an optional Scenario extension supplying
	// a custom aligned-table layout (which also defines the CSV
	// columns); scenarios without it use the generic metric table.
	ScenarioTableRenderer = sweep.TableRenderer
	// StatsTable is the aligned text table the emitters render through.
	StatsTable = stats.Table
)

// Well-known sweep metric names (SweepPoint.Metric / SetMetric): the
// full reserved set, mapped onto SweepPoint struct fields; any other
// name is a scenario-defined Extra metric.
const (
	MetricThroughput  = sweep.MetricThroughput
	MetricMinPerCore  = sweep.MetricMinPerCore
	MetricMaxPerCore  = sweep.MetricMaxPerCore
	MetricRel         = sweep.MetricRel
	MetricBaselineOps = sweep.MetricBaselineOps
	MetricLoadedOps   = sweep.MetricLoadedOps
	MetricBackoff     = sweep.MetricBackoff
	MetricPowerMW     = sweep.MetricPowerMW
	MetricEnergyPJ    = sweep.MetricEnergyPJ
	MetricDeltaPct    = sweep.MetricDeltaPct
	MetricPaperPJ     = sweep.MetricPaperPJ
	MetricAreaKGE     = sweep.MetricAreaKGE
	MetricOverheadPct = sweep.MetricOverheadPct
	MetricPaperKGE    = sweep.MetricPaperKGE
)

// ParseSweepGrid parses the -grid flag syntax, e.g.
// "policy=lrsc,colibri queuecap=0,1,2,4 colibriq=2,4,8 backoff=0,64".
func ParseSweepGrid(s string) (SweepGrid, error) { return sweep.ParseGrid(s) }

// Built-in scenario kinds (the paper's evaluation). Scenarios lists
// every registered kind, including custom ones.
const (
	KindFig3    = sweep.Fig3
	KindFig4    = sweep.Fig4
	KindFig5    = sweep.Fig5
	KindFig6    = sweep.Fig6
	KindFig6MS  = sweep.Fig6MS
	KindTableI  = sweep.TableI
	KindTableII = sweep.TableII
)

// RegisterScenario adds a custom scenario to the sweep registry, making
// it addressable from SweepJob.Kind exactly like the built-in kinds —
// with the worker pool, policy grids, disk cache and all emitters. A
// duplicate or empty name is rejected.
func RegisterScenario(s Scenario) error { return sweep.Register(s) }

// Scenarios returns every registered scenario name, sorted.
func Scenarios() []string { return sweep.Names() }

// LookupScenario returns the scenario registered under name.
func LookupScenario(name string) (Scenario, bool) { return sweep.Lookup(name) }

// DescribeScenario returns the one-line description of the scenario
// registered under name, or "" when it is unregistered or has none.
func DescribeScenario(name string) string { return sweep.Describe(name) }

// NewStatsTable creates an aligned text table (for custom
// ScenarioTableRenderer implementations).
func NewStatsTable(title string, header ...string) *StatsTable {
	return stats.NewTable(title, header...)
}

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

// Service fabric re-exports: the layer that turns the sweep engine into
// a network service (`sweep serve` / `sweep worker` are the CLI front
// ends). A SweepServer answers figure/table requests over HTTP from a
// warm SweepBackend, computes misses through the engine exactly once
// regardless of concurrent identical requests (singleflight), and
// coordinates remote SweepWorkers that lease grid points and publish
// results through the shared backend. SweepRemote speaks the server's
// cache API as a Backend (capped-backoff retries; an unreachable peer
// degrades to computing locally, never an error), and SweepTiered
// layers a local disk cache in front of it with write-through and
// read-back-fill. Everything stays deterministic: HTTP responses are
// byte-identical to the CLI emitters, and work distribution never
// changes results — only where points are computed.
type (
	// SweepServer is the HTTP service node: results API, shared cache
	// surface, worker coordinator.
	SweepServer = fabric.Server
	// SweepServerOption configures NewSweepServer.
	SweepServerOption = fabric.ServerOption
	// SweepRemote is the client-side Backend speaking a SweepServer's
	// cache API.
	SweepRemote = fabric.Remote
	// SweepRemoteOption configures NewSweepRemote.
	SweepRemoteOption = fabric.RemoteOption
	// SweepTiered is disk-in-front-of-remote: local hits are free,
	// remote hits back-fill the local layer, Puts write through both.
	SweepTiered = fabric.Tiered
	// SweepWorker is the `sweep worker -join` loop: lease points from a
	// coordinator, compute them locally, publish through the shared
	// backend.
	SweepWorker = fabric.Worker
	// SweepCacheEntry is the wire form of one cached point (the
	// server's /v1/cache GET/PUT payload).
	SweepCacheEntry = fabric.CacheEntry
)

// NewSweepServer builds a service node over backend (nil serves
// uncached, computing every request). Serve its Handler with
// net/http.
func NewSweepServer(backend SweepBackend, opts ...SweepServerOption) *SweepServer {
	return fabric.NewServer(backend, opts...)
}

// SweepServerWorkers sets the server's local compute pool width
// (default GOMAXPROCS).
func SweepServerWorkers(n int) SweepServerOption { return fabric.WithWorkers(n) }

// SweepServerRegistry scopes the server's fabric.* metrics to reg
// instead of ObsDefault.
func SweepServerRegistry(reg *ObsRegistry) SweepServerOption { return fabric.WithRegistry(reg) }

// SweepServerLog routes request/dispatch log lines to f (Printf-shaped).
func SweepServerLog(f func(format string, args ...any)) SweepServerOption { return fabric.WithLog(f) }

// SweepServerLeaseTTL overrides the worker-lease expiry (default 5m):
// a leased point not completed within the TTL is re-queued.
func SweepServerLeaseTTL(ttl time.Duration) SweepServerOption { return fabric.WithLeaseTTL(ttl) }

// NewSweepRemote returns the Backend speaking the cache API of the
// SweepServer at base ("http://host:8080").
func NewSweepRemote(base string, opts ...SweepRemoteOption) *SweepRemote {
	return fabric.NewRemote(base, opts...)
}

// SweepRemoteHTTPClient overrides the remote backend's HTTP client.
func SweepRemoteHTTPClient(c *http.Client) SweepRemoteOption { return fabric.RemoteClient(c) }

// SweepRemoteRetries sets the per-request retry budget: attempts total
// tries with capped exponential backoff starting at backoff.
func SweepRemoteRetries(attempts int, backoff time.Duration) SweepRemoteOption {
	return fabric.RemoteRetries(attempts, backoff)
}

// NewSweepTiered layers local (usually a *SweepCache) in front of
// remote (usually a *SweepRemote).
func NewSweepTiered(local, remote SweepBackend) *SweepTiered { return fabric.NewTiered(local, remote) }

// Observability re-exports: the process-wide metrics registry every
// layer reports into. Kernel counters ("kernel.*") are published by
// System.PublishObs (the experiment runners call it after every
// measured point); the sweep engine publishes its own ("sweep.*") and
// records each run's delta in SweepStats.Metrics. Custom scenarios and
// policies register metrics under their own prefix via
// ObsDefault().Counter("mypkg.thing") and they flow through manifests
// and the -obs flags exactly like the built-ins.
type (
	// ObsRegistry holds named counters, gauges and timers.
	ObsRegistry = obs.Registry
	// ObsCounter is a monotonically increasing metric (atomic).
	ObsCounter = obs.Counter
	// ObsGauge is a level that moves both ways (atomic).
	ObsGauge = obs.Gauge
	// ObsTimer accumulates duration observations (count + total).
	ObsTimer = obs.Timer
	// ObsSnapshot is a deterministic point-in-time copy of a registry.
	ObsSnapshot = obs.Snapshot
)

// ObsDefault returns the process-wide metrics registry.
func ObsDefault() *ObsRegistry { return obs.Default() }

// NewObsRegistry returns an empty, private metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// ObsDiff returns the activity between two snapshots of the same
// registry (counters and timers subtract; gauges carry b's values).
func ObsDiff(a, b ObsSnapshot) ObsSnapshot { return obs.Diff(a, b) }

// NewRunManifest assembles the run manifest for a finished sweep
// (results and stats as returned by RunSweeps or a SweepRunner;
// cacheDir empty when caching was off).
func NewRunManifest(results []*SweepResult, st SweepStats, cacheDir string) RunManifest {
	return sweep.NewManifest(results, st, cacheDir)
}

// WriteSweepTrace writes a run's timeline as Chrome trace-event JSON
// (loadable in chrome://tracing).
func WriteSweepTrace(path string, st SweepStats) error {
	return sweep.WriteTrace(path, st)
}

// Histogram kernel construction for library users (see internal/kernels
// for the full set of variants).
type (
	// HistVariant selects the histogram update primitive.
	HistVariant = kernels.HistVariant
	// HistLayout places the histogram data sections.
	HistLayout = kernels.HistLayout
)

// Histogram variants.
const (
	HistAmoAdd       = kernels.HistAmoAdd
	HistLRSC         = kernels.HistLRSC
	HistLRSCWait     = kernels.HistLRSCWait
	HistLockLRSC     = kernels.HistLockLRSC
	HistLockLRSCWait = kernels.HistLockLRSCWait
	HistLockTicket   = kernels.HistLockTicket
	HistLockMCSMwait = kernels.HistLockMCSMwait
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

// Synchronization-pattern re-exports: the internal/patterns workload
// suite. Each pattern is an assembly kernel builder plus a registered
// sweep scenario — KindBarrier (central / tree / butterfly barriers),
// KindRCU (epoch flip-and-wait writer against concurrent readers) and
// KindCombLock (CC-Synch-style combining lock) — so the kinds run
// through RunSweeps, cmd/sweep and the policy grid exactly like the
// paper figures. The kernel builders are exported for direct System
// runs (see examples/barrier for the scenario route).
type (
	// WaitKind selects how a pattern kernel waits for a memory word to
	// change: spin, bounded-exponential-backoff spin, or Mwait sleep.
	WaitKind = locks.WaitKind
	// BarrierVariant selects the barrier algorithm.
	BarrierVariant = patterns.BarrierVariant
	// BarrierLayout places the barrier kernel's data sections.
	BarrierLayout = patterns.BarrierLayout
	// RCULayout places the RCU kernel's data sections.
	RCULayout = patterns.RCULayout
	// CombLayout places the combining-lock kernel's data sections.
	CombLayout = patterns.CombLayout
)

// Waiter strategies (the pattern scenarios' "wait" param).
const (
	// WaitSpin polls the word in a tight load loop.
	WaitSpin = locks.WaitSpin
	// WaitBackoffSpin polls with bounded exponential backoff.
	WaitBackoffSpin = locks.WaitBackoffSpin
	// WaitMwait sleeps on the word via the paper's Mwait primitive.
	WaitMwait = locks.WaitMwait
)

// Barrier algorithm variants (the barrier scenario's "variant" param).
const (
	// BarrierCentral is a central sense-reversing barrier.
	BarrierCentral = patterns.BarrierCentral
	// BarrierTree is a binary combining-tree barrier (power-of-two cores).
	BarrierTree = patterns.BarrierTree
	// BarrierButterfly is a dissemination-style butterfly barrier
	// (power-of-two cores).
	BarrierButterfly = patterns.BarrierButterfly
)

// The pattern scenario kinds, registered alongside the paper figures.
const (
	KindBarrier  = patterns.KindBarrier
	KindRCU      = patterns.KindRCU
	KindCombLock = patterns.KindCombLock
)

// The pattern scenarios' Job.Params keys.
const (
	// PatternParamWait selects waiter strategies, e.g. "spin,mwait"
	// (default: all three).
	PatternParamWait = patterns.ParamWait
	// PatternParamVariant selects barrier variants, e.g. "tree"
	// (default: all three; barrier kind only).
	PatternParamVariant = patterns.ParamVariant
	// PatternParamMaxCombine caps ops combined per lock hold
	// (comblock kind only; default 16).
	PatternParamMaxCombine = patterns.ParamMaxCombine
)

// ParseWaitKind parses "spin", "backoff" or "mwait".
func ParseWaitKind(s string) (WaitKind, error) { return locks.ParseWaitKind(s) }

// WaitKinds returns every waiter strategy in canonical order.
func WaitKinds() []WaitKind { return locks.WaitKinds() }

// ParseBarrierVariant parses "central", "tree" or "butterfly".
func ParseBarrierVariant(s string) (BarrierVariant, error) { return patterns.ParseBarrierVariant(s) }

// BarrierVariants returns every barrier variant in canonical order.
func BarrierVariants() []BarrierVariant { return patterns.BarrierVariants() }

// NewBarrierLayout allocates the barrier data sections from l for
// nActive participating cores.
func NewBarrierLayout(l *Layout, nActive int) BarrierLayout {
	return patterns.NewBarrierLayout(l, nActive)
}

// BarrierProgram builds the barrier kernel: each round publishes an
// episode number, crosses the barrier, and (with verify) checks no
// participant is still in an earlier episode. rounds <= 0 runs
// endlessly for windowed measurement; positive rounds halt after that
// many episodes.
func BarrierProgram(v BarrierVariant, w WaitKind, lay BarrierLayout, backoff int32, rounds int, verify bool) *Program {
	return patterns.BarrierProgram(v, w, lay, backoff, rounds, verify)
}

// NewRCULayout allocates the RCU data sections from l.
func NewRCULayout(l *Layout) RCULayout { return patterns.NewRCULayout(l) }

// InitRCU points the RCU published pointer at the first buffer; call
// once before running the programs.
func InitRCU(sys *System, lay RCULayout) { patterns.InitRCU(sys, lay) }

// RCUWriterProgram builds the RCU writer (core 0): publish a new
// version, then flip-and-wait twice to drain readers of the retired
// epoch before poisoning its buffer. syncs <= 0 runs endlessly.
func RCUWriterProgram(w WaitKind, lay RCULayout, backoff int32, syncs int) *Program {
	return patterns.RCUWriterProgram(w, lay, backoff, syncs)
}

// RCUReaderProgram builds an RCU reader: register on the current
// epoch's counter, dereference the published pointer, verify the
// version is untorn, deregister.
func RCUReaderProgram(lay RCULayout, bounded bool) *Program {
	return patterns.RCUReaderProgram(lay, bounded)
}

// NewCombLayout allocates the combining-lock data sections from l for
// nActive participating cores.
func NewCombLayout(l *Layout, nActive int) CombLayout {
	return patterns.NewCombLayout(l, nActive)
}

// InitCombLock seats the combining lock's tail sentinel; call once
// before running the program.
func InitCombLock(sys *System, lay CombLayout) { patterns.InitCombLock(sys, lay) }

// CombLockProgram builds the CC-Synch-style combining-lock kernel:
// each core enqueues a request node, and the lock holder combines up
// to maxCombine queued requests per hold. iters <= 0 runs endlessly.
func CombLockProgram(w WaitKind, lay CombLayout, maxCombine int, backoff int32, iters int) *Program {
	return patterns.CombLockProgram(w, lay, maxCombine, backoff, iters)
}
