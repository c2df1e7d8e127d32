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
//
// A Tick costs the newly visible heads plus the requested outputs, not
// all inputs: input pushes set an occupancy bit, a visible head is
// peeked and routed once and stays cached until this router pops it,
// and the per-output request sets persist across ticks. A head that
// waits on the same full output for many cycles is never re-read.
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
	// occ has one bit per input, set iff that input FIFO holds an
	// entry. The input's push hook sets it; this router, each input's
	// only consumer, clears it when its pop empties the FIFO.
	occ []uint64
	// known marks the inputs whose visible head is cached in heads. A
	// head stays cached until this router pops it, so Tick peeks and
	// routes only occ &^ known.
	known []uint64
	heads []T
	// req[o*nw:(o+1)*nw] is the set of known inputs whose head routes
	// to output o, and want the set of outputs with a non-empty req.
	// Both persist across ticks and change only when a head becomes
	// known or is forwarded. nw is the word count of an input set.
	req  []uint64
	want []uint64
	nw   int
	// sleeps and spaceWakes count the fabric parking this router
	// stalled and a pop of one of its outputs waking it (see Fabric).
	sleeps, spaceWakes uint64
}

// NewRouter creates a router with the given input and output ports.
// The ports are owned by the caller (the fabric builder), which lets two
// routers share a FIFO as "my output, your input". It takes over the
// inputs' push hooks to track occupancy; the fabric replaces them with
// hooks that also schedule the router (see wireWakes).
func NewRouter[T any](name string, in, out []*engine.FIFO[T], route func(T) int) *Router[T] {
	r := newRouter(name, in, out, route)
	for i, q := range in {
		q.OnPush(occHook(&r.occ[i>>6], 1<<uint(i&63)))
	}
	return r
}

// newRouter is NewRouter without the push hooks, for the fabric, which
// installs its own once.
func newRouter[T any](name string, in, out []*engine.FIFO[T], route func(T) int) *Router[T] {
	if len(in) == 0 || len(out) == 0 {
		panic(fmt.Sprintf("noc: router %s needs ports", name))
	}
	nw := (len(in) + 63) / 64
	return &Router[T]{Name: name, in: in, out: out, route: route,
		rr: make([]int, len(out)), heads: make([]T, len(in)),
		occ: make([]uint64, nw), known: make([]uint64, nw),
		req: make([]uint64, len(out)*nw), want: make([]uint64, (len(out)+63)/64), nw: nw}
}

// occHook returns the push hook that marks one input occupied. Like
// the fabric's hooks (see pushHook), it is built outside generic code.
func occHook(word *uint64, bit uint64) func() {
	return func() { *word |= bit }
}

// Tick forwards up to one message per output port (and at most one per
// input port), with independent round-robin arbitration per output. It
// returns the number of messages moved.
//
// The input pass peeks and routes only the occupied inputs whose head
// is not yet cached, and adds each newly visible head to its output's
// request set. Arbitration then visits only the requested outputs, in
// ascending order: a full output is skipped, and any other picks the
// first requesting input at or after its round-robin pointer. Outputs no
// head requests have no winner, so skipping them leaves every push, pop
// and rr update as a scan over all outputs would — including two output
// ports that alias one FIFO, where the lower port may fill it before the
// higher one is visited. A forwarded input leaves its request set, so it
// wins at most once, and the head behind it is read next Tick.
func (r *Router[T]) Tick() int {
	for w := range r.occ {
		for fresh := r.occ[w] &^ r.known[w]; fresh != 0; fresh &= fresh - 1 {
			i := w<<6 + bits.TrailingZeros64(fresh)
			head, ok := r.in[i].Peek()
			if !ok {
				continue // pushed this cycle, not yet visible
			}
			o := r.route(head)
			bit := uint64(1) << uint(i&63)
			r.heads[i] = head
			r.known[w] |= bit
			r.req[o*r.nw+w] |= bit
			r.want[o>>6] |= 1 << uint(o&63)
		}
	}
	moved := 0
	for w := range r.want {
		for want := r.want[w]; want != 0; want &= want - 1 {
			o := w<<6 + bits.TrailingZeros64(want)
			if r.out[o].Full() {
				continue
			}
			// HOL blocking: only the (cached) head is considered.
			i := r.pick(o)
			if !r.out[o].Push(r.heads[i]) {
				continue // aliased output filled by an earlier port
			}
			r.forwarded(i, o)
			moved++
		}
	}
	r.Forwards += uint64(moved)
	return moved
}

// pick returns the first input of output o's non-empty request set at
// or after rr[o], wrapping around.
func (r *Router[T]) pick(o int) int {
	set := r.req[o*r.nw : (o+1)*r.nw]
	start := r.rr[o]
	w := start >> 6
	if m := set[w] & (^uint64(0) << uint(start&63)); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	for {
		if w++; w == len(set) {
			w = 0
		}
		if set[w] != 0 {
			return w<<6 + bits.TrailingZeros64(set[w])
		}
	}
}

// forwarded pops input i, whose head was just pushed to output o, and
// retires the cached head: it leaves known and req[o] (and o leaves
// want once nothing else requests it), the occupancy bit clears if the
// pop emptied the FIFO, and o's round-robin pointer moves past i.
func (r *Router[T]) forwarded(i, o int) {
	r.in[i].Pop()
	w, bit := i>>6, uint64(1)<<uint(i&63)
	r.known[w] &^= bit
	set := r.req[o*r.nw : (o+1)*r.nw]
	set[w] &^= bit
	if !anyBit(set) {
		r.want[o>>6] &^= 1 << uint(o&63)
	}
	if r.in[i].Len() == 0 {
		r.occ[w] &^= bit
	}
	if r.rr[o] = i + 1; r.rr[o] == len(r.in) {
		r.rr[o] = 0
	}
}

func anyBit(set []uint64) bool {
	for _, m := range set {
		if m != 0 {
			return true
		}
	}
	return false
}

// Stalled reports, right after a Tick, whether every occupied input
// holds a visible head that Tick did not forward and whose output is
// full: no input is occupied but not yet known, and every wanted output
// is full. Until one of those outputs pops, the next Tick is then an
// exact no-op — no push, no pop, no rr change — whatever is pushed
// behind the heads. An empty router is not stalled (it is idle, see
// Busy).
func (r *Router[T]) Stalled() bool {
	for w := range r.occ {
		if r.occ[w]&^r.known[w] != 0 {
			return false // head not yet visible, or one behind a forwarded head
		}
	}
	blocked := false
	for w, want := range r.want {
		for ; want != 0; want &= want - 1 {
			if !r.out[w<<6+bits.TrailingZeros64(want)].Full() {
				return false
			}
			blocked = true
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
	for w := range r.occ {
		if r.occ[w] != 0 {
			return true
		}
	}
	return false
}
