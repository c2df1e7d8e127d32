package noc

import (
	"fmt"

	"repro/internal/engine"
)

// Router is a generic input-queued router stage. Each input port is a
// bounded timestamped FIFO; each output port forwards at most one message
// per cycle into a downstream FIFO (the next router's input, or a terminal
// port). Arbitration is round-robin across inputs with head-of-line
// blocking: only the head of each input queue is considered, so a blocked
// head stalls everything behind it — the mechanism behind hot-spot tree
// saturation.
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
	// heads and ro cache, for the duration of one Tick, each input's
	// visible head and the output port it routes to (ro[i] < 0: input
	// empty, head not yet visible, or already forwarded this cycle).
	// route() therefore runs once per occupied input instead of once per
	// (output, input) probe, and the consumed marker doubles as the old
	// per-tick taken[] array without the O(inputs) clear.
	heads []T
	ro    []int32
}

// NewRouter creates a router with the given input and output ports.
// The ports are owned by the caller (the fabric builder), which lets two
// routers share a FIFO as "my output, your input".
func NewRouter[T any](name string, in, out []*engine.FIFO[T], route func(T) int) *Router[T] {
	if len(in) == 0 || len(out) == 0 {
		panic(fmt.Sprintf("noc: router %s needs ports", name))
	}
	return &Router[T]{Name: name, in: in, out: out, route: route,
		rr: make([]int, len(out)), heads: make([]T, len(in)), ro: make([]int32, len(in))}
}

// Tick forwards up to one message per output port (and at most one per
// input port), with independent round-robin arbitration per output. It
// returns the number of messages moved.
//
// The pass is input-major: each visible head is peeked and routed exactly
// once, then every output picks the first cached candidate in its
// round-robin order. Because each head routes to exactly one output and a
// forwarded input is marked consumed (ro[i] = -1), the winner per output —
// and therefore every push, pop and rr update — is identical to the
// output-major scan with a per-tick taken[] array.
func (r *Router[T]) Tick() int {
	any := false
	for i, f := range r.in {
		if head, ok := f.Peek(); ok {
			r.heads[i] = head
			r.ro[i] = int32(r.route(head))
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
	for o := range r.out {
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
	r.Forwards += uint64(moved)
	return moved
}

// Busy reports whether any input stage is occupied — the router's
// quiescence predicate. An idle router's Tick is a no-op, so the fabric's
// dirty-list scheduling skips it entirely; a router stays busy while a
// queued message is not yet visible (pushed this cycle) or is blocked by
// downstream backpressure.
func (r *Router[T]) Busy() bool {
	for _, f := range r.in {
		if f.Len() > 0 {
			return true
		}
	}
	return false
}
