package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/engine"
)

// Router is a generic input-queued router stage. Each input port is a
// bounded timestamped FIFO; each output port forwards at most one message
// per cycle into a downstream FIFO (the next router's input, or a terminal
// port). Arbitration is round-robin across inputs with head-of-line
// blocking: only the head of each input queue is considered, so a blocked
// head stalls everything behind it — the mechanism behind hot-spot tree
// saturation. A router whose every queued head waits on a full output is
// Stalled: its next Tick is a no-op until one of those outputs pops, so
// the fabric parks it instead of polling (see Fabric).
type Router[T any] struct {
	Name string
	in   []*engine.FIFO[T]
	out  []*engine.FIFO[T]
	// route maps a message to an output port index.
	route func(T) int
	// rr is the per-output round-robin pointer, advanced past the last
	// winning input. (A pointer that merely rotates once per cycle can
	// phase-lock with periodic downstream grants and starve inputs
	// indefinitely — observed as a livelocked reservation holder.)
	rr []int
	// Forwards counts messages moved, for the energy model.
	Forwards uint64
	// heads and ro cache, from the last Tick, each input's visible head
	// and the output port it routes to (ro[i] < 0: input empty, head not
	// yet visible, or forwarded by that Tick). route() therefore runs
	// once per occupied input, and the consumed marker stops an input
	// from winning twice.
	heads []T
	ro    []int32
	// want is the set of outputs some visible head routes to, built by
	// Tick's input pass; arbitration visits only those outputs and
	// clears the set as it goes.
	want []uint64
	// sleeps and spaceWakes count the fabric parking this router
	// stalled and a pop of one of its outputs waking it (see Fabric).
	sleeps, spaceWakes uint64
}

// NewRouter creates a router with the given input and output ports.
// The ports are owned by the caller (the fabric builder), which lets two
// routers share a FIFO as "my output, your input".
func NewRouter[T any](name string, in, out []*engine.FIFO[T], route func(T) int) *Router[T] {
	if len(in) == 0 || len(out) == 0 {
		panic(fmt.Sprintf("noc: router %s needs ports", name))
	}
	return &Router[T]{Name: name, in: in, out: out, route: route,
		rr: make([]int, len(out)), heads: make([]T, len(in)), ro: make([]int32, len(in)),
		want: make([]uint64, (len(out)+63)/64)}
}

// Tick forwards up to one message per output port (and at most one per
// input port), with independent round-robin arbitration per output. It
// returns the number of messages moved.
//
// The input pass peeks and routes each visible head once and marks the
// output it requests. Arbitration then visits only the requested
// outputs, in ascending order: a full output is skipped, and any other
// picks the first requesting input at or after its round-robin pointer.
// Outputs no head requests have no winner, so skipping them leaves every
// push, pop and rr update as a scan over all outputs would — including
// two output ports that alias one FIFO, where the lower port may fill it
// before the higher one is visited.
func (r *Router[T]) Tick() int {
	any := false
	for i, f := range r.in {
		if head, ok := f.Peek(); ok {
			o := r.route(head)
			r.heads[i] = head
			r.ro[i] = int32(o)
			r.want[o>>6] |= 1 << uint(o&63)
			any = true
		} else {
			r.ro[i] = -1
		}
	}
	if !any {
		return 0
	}
	n := len(r.in)
	moved := 0
	for w, want := range r.want {
		if want == 0 {
			continue
		}
		r.want[w] = 0
		for ; want != 0; want &= want - 1 {
			o := w<<6 + bits.TrailingZeros64(want)
			if r.out[o].Full() {
				continue
			}
			oo := int32(o)
			for k, i := 0, r.rr[o]; k < n; k++ {
				if i >= n {
					i -= n
				}
				// HOL blocking: only the (cached) head is considered.
				if r.ro[i] == oo {
					if !r.out[o].Push(r.heads[i]) {
						break // aliased output filled by an earlier port
					}
					r.in[i].Pop()
					r.ro[i] = -1
					if r.rr[o] = i + 1; r.rr[o] == n {
						r.rr[o] = 0
					}
					moved++
					break
				}
				i++
			}
		}
	}
	r.Forwards += uint64(moved)
	return moved
}

// Stalled reports, right after a Tick, whether every occupied input
// holds a visible head that Tick did not forward and whose output is
// full. Until one of those outputs pops, the next Tick is then an exact
// no-op — no push, no pop, no rr change — whatever is pushed behind the
// heads. An empty router is not stalled (it is idle, see Busy).
func (r *Router[T]) Stalled() bool {
	blocked := false
	for i, f := range r.in {
		if o := r.ro[i]; o >= 0 {
			if !r.out[o].Full() {
				return false
			}
			blocked = true
		} else if f.Len() > 0 {
			return false // head not yet visible, or one behind a forwarded head
		}
	}
	return blocked
}

// Busy reports whether any input stage is occupied — the router's
// quiescence predicate. An idle router's Tick is a no-op, so the
// fabric's dirty-list scheduling skips it entirely. A busy router is
// either still moving (it may forward next cycle) or Stalled behind a
// full output; the fabric keeps the first kind dirty and, for tile
// routers and link arbiters, parks the second until the output pops.
func (r *Router[T]) Busy() bool {
	for _, f := range r.in {
		if f.Len() > 0 {
			return true
		}
	}
	return false
}
