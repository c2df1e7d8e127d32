package engine

import "math/bits"

// ActiveSet is a fixed-capacity set of small integer component IDs — the
// scheduler's "runnable" bookkeeping. It is a bitset, so membership
// updates are O(1), Len/Empty are O(1), and iteration (AppendTo) visits
// members in ascending ID order, which is what makes an activity-driven
// cycle loop deterministic: skipping quiescent components must not
// perturb the order in which the live ones are ticked.
//
// A summary bitmap holds one bit per non-empty word, so iteration skips
// empty words 64 at a time: a 4096-bank set with one hot bank costs one
// summary word and one member word, not a walk over 64 words.
type ActiveSet struct {
	words   []uint64
	summary []uint64 // bit wi set iff words[wi] != 0
	count   int
}

// MakeActiveSet returns a set able to hold IDs in [0, n).
func MakeActiveSet(n int) ActiveSet {
	nw := (n + 63) / 64
	return ActiveSet{words: make([]uint64, nw), summary: make([]uint64, (nw+63)/64)}
}

// Add inserts id (idempotent).
func (s *ActiveSet) Add(id int) {
	w, b := id>>6, uint64(1)<<uint(id&63)
	if s.words[w]&b == 0 {
		s.words[w] |= b
		s.summary[w>>6] |= 1 << uint(w&63)
		s.count++
	}
}

// Remove deletes id (idempotent).
func (s *ActiveSet) Remove(id int) {
	w, b := id>>6, uint64(1)<<uint(id&63)
	if s.words[w]&b != 0 {
		s.words[w] &^= b
		if s.words[w] == 0 {
			s.summary[w>>6] &^= 1 << uint(w&63)
		}
		s.count--
	}
}

// Contains reports membership.
func (s *ActiveSet) Contains(id int) bool {
	return s.words[id>>6]&(1<<uint(id&63)) != 0
}

// Len returns the member count.
func (s *ActiveSet) Len() int { return s.count }

// Empty reports whether the set has no members.
func (s *ActiveSet) Empty() bool { return s.count == 0 }

// AppendTo appends the members in ascending order to dst and returns the
// extended slice. It visits only non-empty words, found through the
// summary, and stops at the last member. Callers reuse a scratch slice
// across cycles so steady state allocates nothing.
func (s *ActiveSet) AppendTo(dst []int) []int {
	for si, left := 0, s.count; left > 0; si++ {
		for sw := s.summary[si]; sw != 0; sw &= sw - 1 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			base := wi << 6
			for w := s.words[wi]; w != 0; w &= w - 1 {
				dst = append(dst, base+bits.TrailingZeros64(w))
				left--
			}
		}
	}
	return dst
}

// wakeEntry is one pending timed wake-up: component id becomes runnable
// when the clock reaches cycle at.
type wakeEntry struct {
	at Cycle
	id int
}

// Scheduler is the activity-driven kernel's core data structure: the
// active set of runnable component IDs plus a timestamped wake heap for
// components sleeping on a timer (a core counting down a PAUSE backoff).
// Components that sleep on an event instead (a response arriving, a FIFO
// becoming non-empty) are woken by FIFO push wakes and by Wake calls from
// delivery paths; the heap exists so globally idle spans can be
// fast-forwarded to the next timed event without simulating the empty
// cycles in between.
type Scheduler struct {
	set  ActiveSet
	heap []wakeEntry

	// HeapPushes and HeapPops count wake-heap operations — the price of
	// timed sleep, as opposed to the event wakes that are plain bitset
	// updates. Plain (non-atomic) fields: the kernel publishes them to
	// the obs registry on the cold path.
	HeapPushes uint64
	HeapPops   uint64
}

// NewScheduler returns a scheduler for component IDs in [0, n). The
// wake heap is sized for one pending timer per component, the most a
// caller that parks each component at most once at a time can have, so
// WakeAt never grows it.
func NewScheduler(n int) *Scheduler {
	return &Scheduler{set: MakeActiveSet(n), heap: make([]wakeEntry, 0, n)}
}

// Wake marks id runnable now.
func (s *Scheduler) Wake(id int) { s.set.Add(id) }

// Sleep removes id from the runnable set. The component stops being
// ticked until a Wake (event) or a due WakeAt (timer) readmits it.
func (s *Scheduler) Sleep(id int) { s.set.Remove(id) }

// Runnable reports whether id is in the active set.
func (s *Scheduler) Runnable(id int) bool { return s.set.Contains(id) }

// AnyRunnable reports whether any component is runnable now (timed
// sleepers excluded).
func (s *Scheduler) AnyRunnable() bool { return !s.set.Empty() }

// AppendRunnable appends the runnable IDs in ascending order to dst.
// Mutations during the subsequent iteration (a later component waking an
// earlier one) take effect next cycle, exactly like the dense loop where
// the earlier component had already been ticked.
func (s *Scheduler) AppendRunnable(dst []int) []int { return s.set.AppendTo(dst) }

// WakeAt schedules id to become runnable when the clock reaches cycle at.
func (s *Scheduler) WakeAt(id int, at Cycle) {
	s.heap = append(s.heap, wakeEntry{at: at, id: id})
	s.siftUp(len(s.heap) - 1)
	s.HeapPushes++
}

// NextWake returns the earliest pending timed wake-up.
func (s *Scheduler) NextWake() (Cycle, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// WakeDue pops every wake-up due at or before now, adds the component to
// the active set, and calls woke(id) for each (ties pop in ascending ID
// order, keeping the pop sequence deterministic).
func (s *Scheduler) WakeDue(now Cycle, woke func(id int)) {
	for len(s.heap) > 0 && s.heap[0].at <= now {
		id := s.heap[0].id
		s.pop()
		s.set.Add(id)
		if woke != nil {
			woke(id)
		}
	}
}

// less orders the wake heap by cycle, ties by component ID.
func (s *Scheduler) less(i, j int) bool {
	a, b := s.heap[i], s.heap[j]
	return a.at < b.at || (a.at == b.at && a.id < b.id)
}

func (s *Scheduler) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Scheduler) pop() {
	s.HeapPops++
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s.heap) && s.less(l, min) {
			min = l
		}
		if r < len(s.heap) && s.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
	}
}
