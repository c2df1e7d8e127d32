package sweep

// Job expansion: ExpandJob turns a job into its series skeleton and an
// explicit, deterministically ordered work-item list. The Runner places
// points by item; the fabric's serve/worker protocol hands item indices
// and keys to worker machines, whose points come back through the shared
// backend and are placed by the Runner like any other cache hit, so a
// distributed run is byte-identical to a local one.

// WorkItem is one independent point of an expanded job: its placement
// (series and point index), its content-hash cache key (empty =
// uncacheable, e.g. when the binary has no fingerprint or the curve
// declares no key — such items cannot travel through a shared backend
// and must be computed by whoever assembles the result), and whether
// computing it runs a simulation.
type WorkItem struct {
	Series int    `json:"series"`
	Point  int    `json:"point"`
	Key    string `json:"key,omitempty"`
	Sim    bool   `json:"sim"`

	run func() Point
}

// Compute runs the item's measurement. Safe for concurrent use across
// distinct items; deterministic, so any machine expanding the same
// normalized job computes the same value.
func (w WorkItem) Compute() Point { return w.run() }

// ExpandedJob is a normalized job resolved into its series skeleton and
// flat work-item list — the unit of the fabric's coordinator/worker
// protocol. Two processes built from the same binary expanding the same
// normalized job get identical item lists (same order, same keys).
type ExpandedJob struct {
	Job    Job
	Cores  int
	Items  []WorkItem
	series []Series
	notRun []string
}

// ExpandJob normalizes j and expands it into its work items.
func ExpandJob(j Job) (*ExpandedJob, error) {
	norm, err := j.Normalize()
	if err != nil {
		return nil, err
	}
	return expand(norm)
}

// result returns the job's empty Result: every series with its point
// slots allocated, ready for placement by item.
func (e *ExpandedJob) result() *Result {
	r := &Result{Job: e.Job, Cores: e.Cores, Series: make([]Series, len(e.series)), NotRun: e.notRun}
	for si, s := range e.series {
		r.Series[si] = Series{Name: s.Name, Grid: s.Grid, Points: make([]Point, len(s.Points))}
	}
	return r
}
