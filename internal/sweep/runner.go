package sweep

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep/work"
)

// Event reports one finished sweep point to the Progress callback.
type Event struct {
	Done, Total int
	Kind        Kind
	Cached      bool // served from the cache, no simulation ran
}

// PointTiming records how one work unit of a run was executed: which
// worker ran it, when (offsets from the run start), and whether the
// cache served it. It is observation-only data for manifests and the
// timeline exporter; results never depend on it. The run's
// fast-forwarded cycles are the kernel.ff.cycles_saved delta in
// RunStats.Metrics: a shared cumulative counter has no per-unit share.
type PointTiming struct {
	Job    int    `json:"job"`    // index into the run's job list
	Kind   string `json:"kind"`   // experiment kind
	Series string `json:"series"` // series name within the job
	Index  int    `json:"index"`  // point index within the series
	X      int    `json:"x"`      // swept coordinate of the point

	Worker  int           `json:"worker"`
	Start   time.Duration `json:"startNs"` // offset from run start
	Dur     time.Duration `json:"durNs"`
	Cached  bool          `json:"cached"`
	Sim     bool          `json:"sim"`               // unit runs a simulation (vs. static table row)
	Deduped int           `json:"deduped,omitempty"` // extra placements served by this unit
}

// RunStats summarizes a Run/RunAll invocation. It is reported out of
// band (never part of a Result) so result JSON stays run-independent;
// the run manifest serializes it wholesale.
type RunStats struct {
	Units     int           `json:"units"`     // distinct work units (identical points across jobs collapse)
	Executed  int           `json:"executed"`  // simulations executed this run
	CacheHits int           `json:"cacheHits"` // units served from the cache
	Elapsed   time.Duration `json:"elapsedNs"`

	// Workers is the effective pool width of the run.
	Workers int `json:"workers"`
	// WorkerBusy is each worker's cumulative in-unit time; against
	// Elapsed it gives per-lane utilization. Its sum is the total of the
	// sweep.point.wall histogram's observations.
	WorkerBusy []time.Duration `json:"workerBusyNs,omitempty"`
	// Timings has one entry per unit, in deterministic unit order (job,
	// series, point — never scheduling order).
	Timings []PointTiming `json:"timings,omitempty"`
	// Metrics is the activity this run added to the process-wide obs
	// registry: the kernel counters published by the points it executed
	// plus the sweep engine's own (cache traffic, and the
	// sweep.point.wall and sweep.queue.wait histograms of each unit's
	// run time and wait for a worker).
	Metrics obs.Snapshot `json:"metrics"`
}

// Runner fans sweep jobs out across a worker pool with optional point
// caching and live progress reporting.
type Runner struct {
	// Workers is the concurrency; <= 0 selects GOMAXPROCS.
	Workers int
	// Cache memoizes points when non-nil: the local disk *Cache, a
	// fabric remote or tiered backend, or any other Backend
	// implementation. (A typed-nil *Cache is treated as nil, so call
	// sites that conditionally open a disk cache need no interface
	// gymnastics.)
	Cache Backend
	// Progress, when non-nil, is invoked once per finished point. It may
	// be called concurrently from worker goroutines.
	Progress func(Event)
	// Obs, when non-nil, scopes the run's sweep counters, histograms and
	// RunStats.Metrics to this registry instead of the process-wide
	// obs.Default() — required when several RunAll calls run concurrently
	// in one process, whose metrics would otherwise cross-contaminate. A
	// Cache without its own registry inherits this one for the run.
	// (Kernel counters published by the experiments themselves still go
	// to the default registry; only the sweep engine's own accounting —
	// points, cache traffic, durations — is scoped here.)
	Obs *obs.Registry
}

// Run executes one job. See RunAll.
func (r *Runner) Run(job Job) (*Result, RunStats, error) {
	results, st, err := r.RunAll([]Job{job})
	if err != nil {
		return nil, st, err
	}
	return results[0], st, nil
}

// RunAll executes any number of jobs in one shot: every independent
// point of every job enters a single worker pool, so a multi-figure
// sweep keeps all cores busy even while individual figures drain.
// Results are assembled in job order with engine-defined series/point
// order — output never depends on scheduling.
func (r *Runner) RunAll(jobs []Job) ([]*Result, RunStats, error) {
	cache := r.Cache
	if nilBackend(cache) {
		cache = nil
	}
	if rs, ok := cache.(RegistryScoped); ok {
		cache = rs.ScopedBackend(r.Obs)
	}
	before := r.Obs.Snapshot()
	start := time.Now()
	results := make([]*Result, len(jobs))
	// Identical points across jobs (same non-empty cache key) collapse
	// into one unit with several placements, so duplicated selections
	// never simulate the same point twice.
	type placement struct {
		job, series, point int
	}
	type flatUnit struct {
		WorkItem
		places []placement
	}
	var units []*flatUnit
	byKey := map[string]*flatUnit{}
	for ji, job := range jobs {
		e, err := ExpandJob(job)
		if err != nil {
			return nil, RunStats{}, err
		}
		results[ji] = e.result()
		for _, it := range e.Items {
			at := placement{job: ji, series: it.Series, point: it.Point}
			if it.Key != "" {
				if fu, ok := byKey[it.Key]; ok {
					fu.places = append(fu.places, at)
					continue
				}
			}
			fu := &flatUnit{WorkItem: it, places: []placement{at}}
			units = append(units, fu)
			if it.Key != "" {
				byKey[it.Key] = fu
			}
		}
	}

	pool := work.Pool{Workers: r.Workers}
	nWorkers := pool.Size(len(units))
	busy := make([]time.Duration, nWorkers)
	var busyMu sync.Mutex
	timings := make([]PointTiming, len(units))
	pointWall := r.Obs.Histogram("sweep.point.wall")
	queueWait := r.Obs.Histogram("sweep.queue.wait")

	var done, executed, hits atomic.Int64
	pool.MapWorkers(len(units), func(worker, i int) {
		u := units[i]
		unitStart := time.Since(start)
		queueWait.Observe(unitStart)
		var p Point
		cached := false
		if cache != nil && u.Key != "" {
			p, cached = cache.Get(u.Key)
		}
		if !cached {
			p = u.Compute()
			if u.Sim {
				executed.Add(1)
			}
			if cache != nil && u.Key != "" {
				// Best-effort: a failed write only costs a future re-run.
				_ = cache.Put(u.Key, p)
			}
		} else {
			hits.Add(1)
		}
		for _, at := range u.places {
			results[at.job].Series[at.series].Points[at.point] = p
		}
		dur := time.Since(start) - unitStart
		pointWall.Observe(dur)
		busyMu.Lock()
		busy[worker] += dur
		busyMu.Unlock()
		at := u.places[0]
		res := results[at.job]
		timings[i] = PointTiming{
			Job:     at.job,
			Kind:    string(res.Job.Kind),
			Series:  res.Series[at.series].Name,
			Index:   at.point,
			X:       p.X,
			Worker:  worker,
			Start:   unitStart,
			Dur:     dur,
			Cached:  cached,
			Sim:     u.Sim,
			Deduped: len(u.places) - 1,
		}
		if r.Progress != nil {
			r.Progress(Event{
				Done:   int(done.Add(1)),
				Total:  len(units),
				Kind:   res.Job.Kind,
				Cached: cached,
			})
		}
	})

	for _, res := range results {
		finalize(res)
	}
	// Timings are indexed by unit, and units were laid out in (job,
	// series, point) order — deterministic placement order regardless of
	// scheduling, no sort needed.
	r.Obs.Counter("sweep.points.total").Add(uint64(len(units)))
	r.Obs.Counter("sweep.points.executed").Add(uint64(executed.Load()))
	r.Obs.Counter("sweep.points.cached").Add(uint64(hits.Load()))
	r.Obs.Gauge("sweep.workers").Set(int64(nWorkers))
	st := RunStats{
		Units:      len(units),
		Executed:   int(executed.Load()),
		CacheHits:  int(hits.Load()),
		Elapsed:    time.Since(start),
		Workers:    nWorkers,
		WorkerBusy: busy,
		Timings:    timings,
		Metrics:    obs.Diff(before, r.Obs.Snapshot()),
	}
	return results, st, nil
}
