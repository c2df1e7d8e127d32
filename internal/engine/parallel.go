package engine

import (
	"runtime"
	"sync/atomic"
)

// Parallel-kernel primitives: a reusable phase barrier and an atomic
// bitset. The partitioned kernel (platform.System.Run with more than one
// partition) shards the simulated system across OS threads and
// synchronizes them at deterministic phase boundaries; everything the
// partitions share is either read-only during a phase or one of these
// two structures.

// Barrier is a reusable sense-reversing spin barrier for n participants.
// Wait blocks until every participant has arrived; the last arriver may
// run an action while the others are still blocked — the partitioned
// kernel's "cycle leader" hook for work that must observe every
// partition quiesced (clock advance, stats folding, run-control
// decisions). The atomic arrival counter and sense flip give the action
// a happens-before edge over every pre-barrier write and give every
// post-barrier read one over the action's writes.
type Barrier struct {
	n     int32
	count atomic.Int32
	sense atomic.Uint32
}

// NewBarrier returns a barrier for n participants. With n == 1 every
// Wait returns immediately after running the action, so a single
// partition pays no synchronization.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("engine: barrier needs at least one participant")
	}
	return &Barrier{n: int32(n)}
}

// Wait blocks until all participants have arrived, then releases them
// together. The last arriver runs action (if non-nil) before the
// release. Waiters spin briefly, then yield the processor, so the
// barrier stays correct (if slower) with more partitions than OS
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

// AtomicSet is the concurrent counterpart of ActiveSet: a fixed-capacity
// bitset over small integer IDs whose Add/Remove are atomic word
// operations. The partitioned fabric uses them as per-network router
// dirty and asleep sets — wakes cross partition boundaries (a tile
// router pushing into another partition's link arbiter, a link arbiter
// popping another partition's tile egress), and atomic, idempotent,
// commutative bit-sets are what keeps those cross-partition wakes
// race-free without changing the set a one-partition run would have
// built. Unlike ActiveSet it keeps no member count; readers scan words.
type AtomicSet struct {
	words []atomic.Uint64
}

// MakeAtomicSet returns a set able to hold IDs in [0, n).
func MakeAtomicSet(n int) AtomicSet {
	return AtomicSet{words: make([]atomic.Uint64, (n+63)/64)}
}

// Add inserts id (idempotent, safe for concurrent use).
func (s *AtomicSet) Add(id int) {
	s.words[id>>6].Or(1 << uint(id&63))
}

// Remove deletes id (idempotent, safe for concurrent use) and reports
// whether it was a member: of concurrent Removes of one member, exactly
// one reports true.
func (s *AtomicSet) Remove(id int) bool {
	bit := uint64(1) << uint(id&63)
	return s.words[id>>6].And(^bit)&bit != 0
}

// Contains reports membership.
func (s *AtomicSet) Contains(id int) bool {
	return s.words[id>>6].Load()&(1<<uint(id&63)) != 0
}

// Any reports whether the set has at least one member.
func (s *AtomicSet) Any() bool {
	for i := range s.words {
		if s.words[i].Load() != 0 {
			return true
		}
	}
	return false
}

// LoadWord returns the 64-member chunk starting at ID w*64. Partition
// owners combine it with an ownership mask to snapshot their members
// without walking individual IDs.
func (s *AtomicSet) LoadWord(w int) uint64 { return s.words[w].Load() }

// NumWords returns the number of 64-member chunks.
func (s *AtomicSet) NumWords() int { return len(s.words) }
