package fabric

import (
	"container/list"
	"sync"
	"time"
)

// memoJobs bounds how many finished jobs a flight group remembers.
const memoJobs = 64

// memoRefresh is how long a finished flight is remembered. The next
// call after that runs the job again, which on a warm server is one
// pass of backend hits: the disk cache moves an entry's mtime, its LRU
// recency, on a hit at most once per the same five minutes (sweep's
// touchInterval), so a job served from memory stays as recent under
// `sweep -cache-gc` as one served from the cache on every request.
const memoRefresh = 5 * time.Minute

// flight is one computation of a job's result. Followers block on done
// and read the leader's outcome — the retry-free analog of the paper's
// wake-on-ready queues: nobody re-runs the computation, nobody polls for
// it, everyone sleeps until the one execution finishes. A remembered
// flight has finished and sits in the group's recency list.
type flight struct {
	done chan struct{}
	val  any
	err  error
	key  string
	at   time.Time     // when a remembered flight finished
	elem *list.Element // position in flightGroup.recent; nil unless remembered
}

// flightSource says how do produced a caller's value.
type flightSource int

const (
	flightRan        flightSource = iota // this caller ran fn
	flightJoined                         // joined a concurrent caller's run
	flightRemembered                     // read a finished, remembered run
)

// flightGroup deduplicates identical computations (classic singleflight,
// dependency-free) and remembers the memoJobs most recently used
// successful flights that were asked to be kept, each for memoRefresh:
// a later caller of such a key reads the finished value without running
// anything. Errors are never remembered, so a failed job runs again on
// the next call. A kept value must be determined by its key alone; the
// server keys by job identity, which fixes the job's result.
type flightGroup struct {
	mu     sync.Mutex
	m      map[string]*flight // in flight and remembered, by key
	recent list.List          // remembered flights, most recently used first
}

// do returns key's value: a remembered one, a concurrent caller's, or
// fn's. keep asks the group to remember fn's value if it succeeds.
func (g *flightGroup) do(key string, keep bool, fn func() (any, error)) (any, error, flightSource) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flight{}
	}
	if f, ok := g.m[key]; ok {
		switch {
		case f.elem == nil:
			g.mu.Unlock()
			<-f.done
			return f.val, f.err, flightJoined
		case time.Since(f.at) < memoRefresh:
			g.recent.MoveToFront(f.elem)
			g.mu.Unlock()
			return f.val, nil, flightRemembered
		}
		g.recent.Remove(f.elem) // too old: run the job again below
	}
	f := &flight{done: make(chan struct{}), key: key}
	g.m[key] = f
	g.mu.Unlock()

	f.val, f.err = fn()

	g.mu.Lock()
	if keep && f.err == nil {
		f.at = time.Now()
		f.elem = g.recent.PushFront(f)
		if g.recent.Len() > memoJobs {
			old := g.recent.Remove(g.recent.Back()).(*flight)
			delete(g.m, old.key)
		}
	} else {
		delete(g.m, key)
	}
	g.mu.Unlock()
	close(f.done)
	return f.val, f.err, flightRan
}
