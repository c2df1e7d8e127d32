// Package work is the scheduling core of the sweep engine: a bounded
// worker pool that maps an index space onto GOMAXPROCS goroutines with
// deterministic result placement. Callers write result i from fn(i), so
// the output order never depends on goroutine interleaving — the property
// the sweep engine's byte-identical-JSON guarantee rests on.
//
// The sweep Runner and the fabric's worker loop fan their independent
// simulation points out through this pool.
package work

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool runs index-space maps on a fixed number of workers.
type Pool struct {
	// Workers is the goroutine count; <= 0 selects GOMAXPROCS.
	Workers int
}

// Size returns the effective worker count the pool uses for n items
// (what MapWorkers' worker indices range over).
func (p Pool) Size(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// MapWorkers calls fn(worker, i) exactly once for every i in [0, n),
// distributing calls across the pool's workers and returning when all
// calls are done. fn must be safe for concurrent invocation when the
// pool has more than one worker; each index is claimed by exactly one
// worker. worker is the stable goroutine index in [0, Size(n)), which
// the sweep runner uses to attribute point timings to timeline lanes
// (one per worker) and to account per-worker utilization; fn's result
// placement must still depend only on i, never on worker.
func (p Pool) MapWorkers(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := p.Size(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(k)
	}
	wg.Wait()
}
