package fabric

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// Dispatcher defaults. Lease TTL is generous because a single TeraPool
// point can simulate for minutes; a lost worker costs one TTL before its
// points requeue (results are content-addressed, so the duplicate
// compute a requeue can cause is benign — identical value, same key).
const (
	defaultLeaseTTL  = 5 * time.Minute
	defaultLeaseMax  = 8
	maxLeasePoints   = 64
	defaultLeaseWait = 30 * time.Second
	maxLeaseWait     = 120 * time.Second
	// workerTTL is how long after its last contact a worker still
	// counts as present for the should-we-dispatch decision.
	workerTTL = 15 * time.Second
)

// task is one dispatchable point: an index into its job's deterministic
// expansion plus the coordinator's cache key for the result.
type task struct {
	job *dispJob
	idx int
	key string
}

// dispJob tracks one job's outstanding distributed points.
type dispJob struct {
	job     sweep.Job
	pending int           // tasks not yet done
	doneIdx map[int]bool  // indices workers reported done
	done    chan struct{} // closed when pending hits zero
}

// dispatcher is the coordinator's work queue: the serve path submits a
// cold job's cacheable points, workers lease batches over HTTP (long
// poll — they park, they don't spin), compute, Put the points into the
// shared backend under the coordinator's keys, and complete. The
// coordinator waits on the job's done channel, then runs the job through
// the sweep Runner, which places the workers' points as cache hits.
type dispatcher struct {
	reg *obs.Registry

	mu       sync.Mutex
	queue    []*task // pending, FIFO
	leases   map[string]*leaseState
	waiting  int       // currently parked lease polls
	lastSeen time.Time // last worker contact of any kind
	wake     chan struct{}
	ttl      time.Duration
}

type leaseState struct {
	job     *dispJob
	tasks   []*task
	expires time.Time
}

func newDispatcher(reg *obs.Registry, ttl time.Duration) *dispatcher {
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	return &dispatcher{
		reg:    reg,
		leases: map[string]*leaseState{},
		wake:   make(chan struct{}, 1),
		ttl:    ttl,
	}
}

// signal wakes one parked lease poll (non-blocking; takers re-signal
// while work remains, so one channel slot serves any waiter count).
func (d *dispatcher) signal() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// workersPresent reports whether dispatching is worth it right now:
// a lease poll is parked, or a worker was heard from recently.
func (d *dispatcher) workersPresent() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.waiting > 0 || time.Since(d.lastSeen) < workerTTL
}

// submit registers a job's distributable items (non-empty parallel
// arrays of item index and cache key) and returns the tracking handle.
func (d *dispatcher) submit(job sweep.Job, indices []int, keys []string) *dispJob {
	dj := &dispJob{
		job:     job,
		pending: len(indices),
		doneIdx: make(map[int]bool, len(indices)),
		done:    make(chan struct{}),
	}
	d.mu.Lock()
	for i, idx := range indices {
		d.queue = append(d.queue, &task{job: dj, idx: idx, key: keys[i]})
	}
	d.mu.Unlock()
	d.reg.Counter("fabric.dispatch.jobs").Inc()
	d.reg.Counter("fabric.dispatch.points").Add(uint64(len(indices)))
	d.signal()
	return dj
}

// abandon withdraws a job's undispatched tasks (coordinator gave up
// waiting and its Runner will compute the remainder). Leased tasks finish
// or expire harmlessly — their Puts are content-addressed.
func (d *dispatcher) abandon(dj *dispJob) {
	d.mu.Lock()
	defer d.mu.Unlock()
	kept := d.queue[:0]
	for _, t := range d.queue {
		if t.job != dj {
			kept = append(kept, t)
		}
	}
	d.queue = kept
}

// requeueExpired returns expired leases' unfinished tasks to the queue.
// Called by the coordinator's wait tick and by lease polls, so expiry
// needs no dedicated timer goroutine.
func (d *dispatcher) requeueExpired(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	requeued := false
	for id, ls := range d.leases {
		if now.Before(ls.expires) {
			continue
		}
		delete(d.leases, id)
		for _, t := range ls.tasks {
			if !ls.job.doneIdx[t.idx] {
				d.queue = append(d.queue, t)
				requeued = true
			}
		}
	}
	if requeued {
		d.reg.Counter("fabric.dispatch.requeues").Inc()
		d.mu.Unlock()
		d.signal()
		d.mu.Lock()
	}
}

// lease blocks up to wait (see leaseWait) for work and returns one
// batch from a single job (nil when the wait expires empty or ctx ends).
// The park/wake pair is the worker-side polling-free idle path.
func (d *dispatcher) lease(ctx context.Context, max int, wait time.Duration) *Lease {
	if max <= 0 {
		max = defaultLeaseMax
	}
	if max > maxLeasePoints {
		max = maxLeasePoints
	}
	deadline := time.Now().Add(wait)
	d.mu.Lock()
	d.lastSeen = time.Now()
	d.waiting++
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.waiting--
		d.lastSeen = time.Now()
		d.mu.Unlock()
	}()
	for {
		d.requeueExpired(time.Now())
		if l := d.take(max); l != nil {
			return l
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil
		}
		// Cap the park at the lease TTL so expiry requeues are noticed
		// even when the coordinator's wait tick isn't running.
		if remain > d.ttl {
			remain = d.ttl
		}
		select {
		case <-d.wake:
		case <-time.After(remain):
		case <-ctx.Done():
			return nil
		}
	}
}

// take pops up to max queued tasks of one job into a new lease.
func (d *dispatcher) take(max int) *Lease {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.queue) == 0 {
		return nil
	}
	dj := d.queue[0].job
	var tasks []*task
	kept := d.queue[:0]
	for _, t := range d.queue {
		if t.job == dj && len(tasks) < max {
			tasks = append(tasks, t)
		} else {
			kept = append(kept, t)
		}
	}
	d.queue = kept
	if len(d.queue) > 0 {
		// More work remains for other pollers.
		defer d.signal()
	}
	id := randomID()
	ls := &leaseState{job: dj, tasks: tasks, expires: time.Now().Add(d.ttl)}
	d.leases[id] = ls
	l := &Lease{ID: id, Job: dj.job, Fingerprint: sweep.Fingerprint()}
	for _, t := range tasks {
		l.Indices = append(l.Indices, t.idx)
		l.Keys = append(l.Keys, t.key)
	}
	d.reg.Counter("fabric.dispatch.leases").Inc()
	return l
}

// complete finishes a lease: indices in done are marked finished,
// anything else the lease held requeues immediately. Unknown lease IDs
// (expired and requeued) are ignored — the tasks are already back in
// the queue or done under another lease.
func (d *dispatcher) complete(id string, done []int) {
	d.mu.Lock()
	ls, ok := d.leases[id]
	if !ok {
		d.lastSeen = time.Now()
		d.mu.Unlock()
		return
	}
	delete(d.leases, id)
	d.lastSeen = time.Now()
	doneSet := make(map[int]bool, len(done))
	for _, idx := range done {
		doneSet[idx] = true
	}
	var finished []*dispJob
	for _, t := range ls.tasks {
		if !doneSet[t.idx] {
			d.queue = append(d.queue, t)
			continue
		}
		if ls.job.doneIdx[t.idx] {
			continue // duplicate completion (requeued twice)
		}
		ls.job.doneIdx[t.idx] = true
		ls.job.pending--
		if ls.job.pending == 0 {
			finished = append(finished, ls.job)
		}
	}
	d.mu.Unlock()
	for _, dj := range finished {
		close(dj.done)
	}
	d.signal()
}

// randomID mints a lease ID.
func randomID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}
