package engine

import (
	"runtime"
	"sync/atomic"
)

// Barrier is a reusable sense-reversing spin barrier for n participants.
// Wait blocks until every participant has arrived; the last arriver may
// run an action while the others are still blocked. The atomic arrival
// counter and sense flip give the action a happens-before edge over
// every pre-barrier write and give every post-barrier read one over the
// action's writes.
//
// No simulator code uses it: it remains only because the benchmark
// module's engine.barrier_rt_ns probe measures it. Delete with the next
// benchmark change (ROADMAP item 8).
type Barrier struct {
	n     int32
	count atomic.Int32
	sense atomic.Uint32
}

// NewBarrier returns a barrier for n participants. With n == 1 every
// Wait returns immediately after running the action.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("engine: barrier needs at least one participant")
	}
	return &Barrier{n: int32(n)}
}

// Wait blocks until all participants have arrived, then releases them
// together. The last arriver runs action (if non-nil) before the
// release. Waiters spin briefly, then yield the processor, so the
// barrier stays correct (if slower) with more participants than OS
// threads.
func (b *Barrier) Wait(action func()) {
	s := b.sense.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		if action != nil {
			action()
		}
		b.sense.Store(s + 1)
		return
	}
	for spin := 0; b.sense.Load() == s; spin++ {
		if spin > 64 {
			runtime.Gosched()
		}
	}
}
