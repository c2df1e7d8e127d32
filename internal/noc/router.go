package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/engine"
)

// MaxPorts bounds a router's inputs and outputs: each port set is one
// machine word. Topology.Validate rejects a shape whose routers would
// need more; the largest built-in router (a TeraPool tile request
// router, 32 banks plus 4 group egress ports) has 36.
const MaxPorts = 64

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
// peeked and routed once and stays known until this router pops it,
// and the per-output request sets persist across ticks. A head that
// waits on the same full output for many cycles is never re-routed.
type Router[T any] struct {
	in  []*engine.FIFO[T]
	out []output[T]
	// route maps a message to an output port index.
	route func(T) int
	// occ has one bit per input, set iff that input FIFO holds an
	// entry. The input's push wake sets it; this router, each input's
	// only consumer, clears it when its pop empties the FIFO.
	occ uint64
	// known marks the inputs whose visible head has been routed. A
	// known head stays at its FIFO's head until this router pops it,
	// so Tick peeks and routes only occ &^ known.
	known uint64
	// want is the set of outputs with a non-empty request set.
	want uint64
	// Forwards counts messages moved, for the energy model.
	Forwards uint64
	// sleeps counts the fabric parking this router stalled (see Fabric).
	sleeps uint64
	Name   string
}

// output is one output port: its FIFO, the set of known inputs whose
// head routes to it, and its round-robin pointer. req persists across
// ticks and changes only when a head becomes known or is forwarded. rr
// advances past the last winning input. (A pointer that merely rotates
// once per cycle can phase-lock with periodic downstream grants and
// starve inputs indefinitely — observed as a livelocked reservation
// holder.)
type output[T any] struct {
	q   *engine.FIFO[T]
	req uint64
	rr  int
}

// NewRouter creates a router with the given input and output ports.
// The ports are owned by the caller, which lets two routers share a
// FIFO as "my output, your input". It sets the inputs' push wakes to
// track occupancy; the fabric, which builds its routers in one slab,
// sets wakes that also schedule the router (see buildNetwork). It
// panics beyond MaxPorts inputs or outputs.
func NewRouter[T any](name string, in, out []*engine.FIFO[T], route func(T) int) *Router[T] {
	outs := make([]output[T], len(out))
	for o, q := range out {
		outs[o].q = q
	}
	r := &Router[T]{}
	r.init(name, in, outs, route)
	for i, q := range in {
		q.WakeOnPush(engine.PushWake{Occ: &r.occ, Bit: 1 << uint(i)})
	}
	return r
}

// init sets up r over inputs in and outputs out, whose FIFOs are set
// and whose request sets are empty.
func (r *Router[T]) init(name string, in []*engine.FIFO[T], out []output[T], route func(T) int) {
	if len(in) == 0 || len(out) == 0 {
		panic(fmt.Sprintf("noc: router %s needs ports", name))
	}
	if len(in) > MaxPorts || len(out) > MaxPorts {
		panic(fmt.Sprintf("noc: router %s has %d inputs and %d outputs, more than %d", name, len(in), len(out), MaxPorts))
	}
	*r = Router[T]{Name: name, in: in, out: out, route: route}
}

// Tick forwards up to one message per output port (and at most one per
// input port), with independent round-robin arbitration per output. It
// returns the number of messages moved.
//
// The input pass peeks and routes only the occupied inputs whose head
// is not yet known, and adds each newly visible head to its output's
// request set. Arbitration then visits only the requested outputs, in
// ascending order: a full output is skipped, and any other picks the
// first requesting input at or after its round-robin pointer. Outputs no
// head requests have no winner, so skipping them leaves every push, pop
// and rr update as a scan over all outputs would — including two output
// ports that alias one FIFO, where the lower port may fill it before the
// higher one is visited. A forwarded input leaves its request set, so it
// wins at most once, and the head behind it is read next Tick.
func (r *Router[T]) Tick() int {
	for fresh := r.occ &^ r.known; fresh != 0; fresh &= fresh - 1 {
		i := bits.TrailingZeros64(fresh)
		head, ok := r.in[i].Peek()
		if !ok {
			continue // pushed this cycle, not yet visible
		}
		o := r.route(head)
		bit := uint64(1) << uint(i)
		r.known |= bit
		r.out[o].req |= bit
		r.want |= 1 << uint(o)
	}
	moved := 0
	for want := r.want; want != 0; want &= want - 1 {
		o := bits.TrailingZeros64(want)
		out := &r.out[o]
		if out.q.Full() {
			continue
		}
		// HOL blocking: only the (known, still visible) head is considered.
		i := out.pick()
		head, _ := r.in[i].Peek()
		out.q.Push(head)
		r.forwarded(i, o)
		moved++
	}
	r.Forwards += uint64(moved)
	return moved
}

// pick returns the first input of the non-empty request set at or
// after rr, wrapping around.
func (out *output[T]) pick() int {
	if m := out.req & (^uint64(0) << uint(out.rr)); m != 0 {
		return bits.TrailingZeros64(m)
	}
	return bits.TrailingZeros64(out.req)
}

// forwarded pops input i, whose head was just pushed to output o: it
// leaves known and o's request set (and o leaves want once nothing
// else requests it), the occupancy bit clears if the pop emptied the
// FIFO, and o's round-robin pointer moves past i.
func (r *Router[T]) forwarded(i, o int) {
	q := r.in[i]
	q.Pop()
	bit := uint64(1) << uint(i)
	r.known &^= bit
	out := &r.out[o]
	if out.req &^= bit; out.req == 0 {
		r.want &^= 1 << uint(o)
	}
	if q.Len() == 0 {
		r.occ &^= bit
	}
	if out.rr = i + 1; out.rr == len(r.in) {
		out.rr = 0
	}
}

// Stalled reports, right after a Tick, whether every occupied input
// holds a visible head that Tick did not forward and whose output is
// full: no input is occupied but not yet known, and every wanted output
// is full. Until one of those outputs pops, the next Tick is then an
// exact no-op — no push, no pop, no rr change — whatever is pushed
// behind the heads. An empty router is not stalled (it is idle, see
// Busy).
func (r *Router[T]) Stalled() bool {
	if r.occ&^r.known != 0 {
		return false // head not yet visible, or one behind a forwarded head
	}
	for want := r.want; want != 0; want &= want - 1 {
		if !r.out[bits.TrailingZeros64(want)].q.Full() {
			return false
		}
	}
	return r.want != 0
}

// Busy reports whether any input stage is occupied — the router's
// quiescence predicate. An idle router's Tick is a no-op, so the
// fabric's dirty-list scheduling skips it entirely. A busy router is
// either still moving (it may forward next cycle) or Stalled behind a
// full output; the fabric keeps the first kind dirty and, for tile
// routers and link arbiters, parks the second until the output pops.
func (r *Router[T]) Busy() bool { return r.occ != 0 }
