package engine

// FIFO is a bounded queue whose entries become visible one cycle after they
// are pushed. This models a register-stage FIFO: no matter in which order
// components are ticked within a cycle, a message pushed in cycle t can be
// popped at cycle t+1 at the earliest, which yields clean one-cycle-per-hop
// pipelining across the whole system.
//
// A FIFO wired into an activity-driven scheduler carries its wake
// conditions as data (see PushWake and PopWake), not as callbacks.
//
// The zero value is unusable; construct with NewFIFO or NewFIFOs.
type FIFO[T any] struct {
	buf   []entry[T]
	head  int
	count int
	clock *Clock

	push PushWake
	pop  PopWake
}

type entry[T any] struct {
	val T
	at  Cycle // cycle the entry was pushed
}

// PushWake is what a successful Push wakes: it sets Bit in *Occ, when
// Occ is set (a router's input-occupancy mask), and adds ID to Set, when
// Set is set (the consumer's runnable set). The activity-driven
// scheduler uses it so a component sleeps with no polling until traffic
// actually reaches it — the simulator-side mirror of the paper's
// wake-up messages.
type PushWake struct {
	Occ *uint64
	Bit uint64
	Set *ActiveSet
	ID  int
}

// PopWake is what a successful Pop wakes, for a producer that would
// rather be woken when space frees in a full downstream stage than poll
// it: if ID is in Sleep.Asleep, it moves to Sleep.Dirty and the pop
// counts one space wake. The fabric sets it on every router output: a
// tile router or link arbiter whose every head waits on a full output
// sleeps until one of them pops. Other backpressured producers (a core
// in WaitIssue, a Qnode with an undrained wake-up, a bank with pending
// responses) stay runnable and retry, like the hardware does.
type PopWake struct {
	Sleep *Sleepers
	ID    int
}

// Sleepers is the wake state of a group of producers that sleep on
// space: the runnable (Dirty) and sleeping (Asleep) sets, and how many
// times a pop moved a member from the second to the first.
type Sleepers struct {
	Dirty, Asleep ActiveSet
	SpaceWakes    uint64
}

// NewFIFO returns a FIFO with the given capacity attached to clock.
func NewFIFO[T any](capacity int, clock *Clock) *FIFO[T] {
	return &NewFIFOs[T](1, capacity, clock)[0]
}

// NewFIFOs returns count FIFOs of the given capacity attached to clock,
// their headers in one slab and their entries in another, so that
// neighbouring stages of a network share cache lines.
func NewFIFOs[T any](count, capacity int, clock *Clock) []FIFO[T] {
	if capacity <= 0 {
		panic("engine: FIFO capacity must be positive")
	}
	fs := make([]FIFO[T], count)
	entries := make([]entry[T], count*capacity)
	for i := range fs {
		fs[i] = FIFO[T]{buf: entries[i*capacity : (i+1)*capacity : (i+1)*capacity], clock: clock}
	}
	return fs
}

// WakeOnPush sets what every successful Push wakes.
func (f *FIFO[T]) WakeOnPush(w PushWake) { f.push = w }

// WakeOnPop sets what every successful Pop wakes.
func (f *FIFO[T]) WakeOnPop(w PopWake) { f.pop = w }

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
	if f.push.Occ != nil {
		*f.push.Occ |= f.push.Bit
	}
	if f.push.Set != nil {
		f.push.Set.Add(f.push.ID)
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
	if s := f.pop.Sleep; s != nil && s.Asleep.Contains(f.pop.ID) {
		s.Asleep.Remove(f.pop.ID)
		s.Dirty.Add(f.pop.ID)
		s.SpaceWakes++
	}
	return v, true
}
