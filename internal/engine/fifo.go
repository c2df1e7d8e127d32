package engine

// FIFO is a bounded queue whose entries become visible one cycle after they
// are pushed. This models a register-stage FIFO: no matter in which order
// components are ticked within a cycle, a message pushed in cycle t can be
// popped at cycle t+1 at the earliest, which yields clean one-cycle-per-hop
// pipelining across the whole system.
//
// The zero value is unusable; construct with NewFIFO.
type FIFO[T any] struct {
	buf   []entry[T]
	head  int
	count int
	clock *Clock

	// Scheduling hooks (see OnPush / OnPop). Nil when the FIFO is not
	// wired into an activity-driven scheduler.
	onPush func()
	onPop  func()
}

type entry[T any] struct {
	val T
	at  Cycle // cycle the entry was pushed
}

// NewFIFO returns a FIFO with the given capacity attached to clock.
func NewFIFO[T any](capacity int, clock *Clock) *FIFO[T] {
	if capacity <= 0 {
		panic("engine: FIFO capacity must be positive")
	}
	return &FIFO[T]{buf: make([]entry[T], capacity), clock: clock}
}

// OnPush registers fn to run after every successful Push. The
// activity-driven scheduler wires it to mark the FIFO's consumer
// runnable, so a component sleeps with no polling until traffic actually
// reaches it — the simulator-side mirror of the paper's wake-up messages.
func (f *FIFO[T]) OnPush(fn func()) { f.onPush = fn }

// OnPop registers fn to run after every successful Pop — the symmetric
// hook, for producers that would rather be woken when space frees in a
// full downstream stage than poll it. The fabric wires it on every
// router output: a tile router or link arbiter whose every head waits on
// a full output sleeps until one of them pops. Other backpressured
// producers (a core in WaitIssue, a Qnode with an undrained wake-up, a
// bank with pending responses) stay runnable and retry, like the
// hardware does.
func (f *FIFO[T]) OnPop(fn func()) { f.onPop = fn }

// Len returns the number of queued entries (visible or not).
func (f *FIFO[T]) Len() int { return f.count }

// Full reports whether a Push would fail.
func (f *FIFO[T]) Full() bool { return f.count == len(f.buf) }

// Push appends v, stamping it with the current cycle. It reports whether
// the push succeeded; it fails when the FIFO is full (backpressure).
func (f *FIFO[T]) Push(v T) bool {
	if f.count == len(f.buf) {
		return false
	}
	// head+count < 2*len always holds, so a compare-and-subtract wrap
	// replaces the integer division of a modulo on this hot path.
	idx := f.head + f.count
	if idx >= len(f.buf) {
		idx -= len(f.buf)
	}
	f.buf[idx] = entry[T]{val: v, at: f.clock.Now()}
	f.count++
	if f.onPush != nil {
		f.onPush()
	}
	return true
}

// CanPop reports whether the head entry exists and is at least one cycle
// old, i.e. visible this cycle.
func (f *FIFO[T]) CanPop() bool {
	return f.count > 0 && f.buf[f.head].at < f.clock.Now()
}

// Peek returns the head entry without removing it. The boolean mirrors
// CanPop.
func (f *FIFO[T]) Peek() (T, bool) {
	var zero T
	if !f.CanPop() {
		return zero, false
	}
	return f.buf[f.head].val, true
}

// Pop removes and returns the head entry. The boolean mirrors CanPop.
func (f *FIFO[T]) Pop() (T, bool) {
	var zero T
	if !f.CanPop() {
		return zero, false
	}
	v := f.buf[f.head].val
	f.buf[f.head] = entry[T]{} // release references
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
	}
	f.count--
	if f.onPop != nil {
		f.onPop()
	}
	return v, true
}

// Reset empties the FIFO.
func (f *FIFO[T]) Reset() {
	clear(f.buf)
	f.head = 0
	f.count = 0
}
