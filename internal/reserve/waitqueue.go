package reserve

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/mem"
)

// slotState tracks a WaitQueue reservation slot's lifecycle.
type slotState uint8

const (
	// slotWaiting: the LRwait/Mwait is buffered; no response sent yet.
	slotWaiting slotState = iota
	// slotServedLR: the LRwait response was sent; the reservation is
	// armed until a write to the address or the matching SCwait.
	slotServedLR
	// slotServedMwait: the Mwait is at the head and monitoring the
	// address for a change away from its expected value.
	slotServedMwait
)

// slot is one buffered reservation: the LRWait or MWait request itself
// (Data is MWait's expected value), and its lifecycle.
type slot struct {
	req      bus.Request
	state    slotState
	resValid bool // slotServedLR only
}

// WaitQueue is the direct ("ideal" when capacity == number of cores)
// hardware implementation of LRSCwait from Section III: a per-bank queue
// of outstanding reservations, served strictly in arrival order per
// address. An LRwait arriving at a full queue is refused immediately
// (response with OK=false); software then retries, so LRSCwait_q
// degenerates gracefully into LRSC-style polling once contention exceeds
// q — exactly the behaviour Fig. 3 shows.
type WaitQueue struct {
	capacity int
	slots    []slot
	Stats    Stats
}

// NewWaitQueue returns a queue with the given total slot capacity.
func NewWaitQueue(capacity int) *WaitQueue {
	if capacity <= 0 {
		panic(fmt.Sprintf("reserve: NewWaitQueue(%d)", capacity))
	}
	return &WaitQueue{capacity: capacity}
}

// AdapterStats implements mem.StatsReporter.
func (a *WaitQueue) AdapterStats() mem.AdapterStats { return a.Stats }

// Pending returns the number of occupied slots (tests and tracing).
func (a *WaitQueue) Pending() int { return len(a.slots) }

func (a *WaitQueue) hasAddr(addr uint32) bool {
	for i := range a.slots {
		if a.slots[i].req.Addr == addr {
			return true
		}
	}
	return false
}

func (a *WaitQueue) remove(idx int) {
	a.slots = append(a.slots[:idx], a.slots[idx+1:]...)
}

// promote serves the first waiting slot for addr, if any. Mwait slots whose
// value already changed fire immediately and promotion cascades.
func (a *WaitQueue) promote(addr uint32, s mem.Storage, out []bus.Response) []bus.Response {
	for {
		idx := -1
		for i := range a.slots {
			if a.slots[i].req.Addr == addr && a.slots[i].state == slotWaiting {
				idx = i
				break
			}
		}
		if idx < 0 {
			return out
		}
		sl := &a.slots[idx]
		val := s.Read(addr)
		if sl.req.Op == bus.LRWait {
			sl.state = slotServedLR
			sl.resValid = true
			a.Stats.Grants++
			return append(out, sl.req.Reply(val, true))
		}
		// Mwait: served. Fire immediately if the value already differs.
		if val != sl.req.Data {
			resp := sl.req.Reply(val, true)
			a.remove(idx)
			a.Stats.Grants++
			out = append(out, resp)
			continue // cascade to the next waiter
		}
		sl.state = slotServedMwait
		return out
	}
}

// onWrite runs the monitor logic after a committed write: invalidate a
// served LR reservation, fire a served Mwait whose value moved away from
// its expected value.
func (a *WaitQueue) onWrite(addr uint32, s mem.Storage, out []bus.Response) []bus.Response {
	for i := range a.slots {
		sl := &a.slots[i]
		if sl.req.Addr != addr {
			continue
		}
		switch sl.state {
		case slotServedLR:
			if sl.resValid {
				sl.resValid = false
				a.Stats.Invalidations++
			}
		case slotServedMwait:
			if v := s.Read(addr); v != sl.req.Data {
				resp := sl.req.Reply(v, true)
				a.remove(i)
				a.Stats.Grants++
				out = append(out, resp)
				return a.promote(addr, s, out)
			}
		}
		// At most one served slot per address; waiting slots unaffected.
	}
	return out
}

// Handle implements mem.Adapter.
func (a *WaitQueue) Handle(req bus.Request, s mem.Storage, out []bus.Response) []bus.Response {
	if resp, wrote, ok := mem.HandleBasic(req, s); ok {
		out = append(out, resp)
		if wrote {
			out = a.onWrite(req.Addr, s, out)
		}
		return out
	}
	if req.Op.IsWakeUp() {
		return out // no queues to wake
	}
	switch req.Op {
	case bus.LRWait, bus.MWait:
		return a.handleWait(req, s, out)
	case bus.SCWait:
		return a.handleSCWait(req, s, out)
	case bus.LR, bus.SC:
		// Plain LRSC is replaced by LRSCwait on this unit; fail SCs so
		// mixed software falls back to its retry path.
		if req.Op == bus.LR {
			return append(out, req.Reply(s.Read(req.Addr), false))
		}
		a.Stats.SCFail++
		return append(out, req.Reply(0, false))
	}
	return append(out, req.Reply(0, false))
}

func (a *WaitQueue) handleWait(req bus.Request, s mem.Storage, out []bus.Response) []bus.Response {
	if len(a.slots) >= a.capacity {
		a.Stats.Refused++
		return append(out, req.Reply(s.Read(req.Addr), false))
	}
	if a.hasAddr(req.Addr) {
		// Someone is ahead of us: buffer, respond later.
		a.slots = append(a.slots, slot{req: req, state: slotWaiting})
		return out
	}
	// Queue empty for this address: serve immediately.
	val := s.Read(req.Addr)
	if req.Op == bus.MWait {
		if val != req.Data {
			a.Stats.Grants++
			return append(out, req.Reply(val, true))
		}
		a.slots = append(a.slots, slot{req: req, state: slotServedMwait})
		return out
	}
	a.slots = append(a.slots, slot{req: req, state: slotServedLR, resValid: true})
	a.Stats.Grants++
	return append(out, req.Reply(val, true))
}

func (a *WaitQueue) handleSCWait(req bus.Request, s mem.Storage, out []bus.Response) []bus.Response {
	idx := -1
	for i := range a.slots {
		if sl := a.slots[i]; sl.req.Addr == req.Addr && sl.req.Src == req.Src &&
			sl.state == slotServedLR {
			idx = i
			break
		}
	}
	if idx < 0 {
		// No served reservation for this core (refused LRwait, double
		// SCwait, or software bug): fail without disturbing the queue.
		a.Stats.SCFail++
		return append(out, req.Reply(0, false))
	}
	ok := a.slots[idx].resValid
	a.remove(idx)
	if ok {
		s.Write(req.Addr, req.Data)
		a.Stats.SCSuccess++
	} else {
		a.Stats.SCFail++
	}
	out = append(out, req.Reply(0, ok))
	// The SCwait yields the queue regardless of success: serve the next
	// reservation for this address.
	return a.promote(req.Addr, s, out)
}
