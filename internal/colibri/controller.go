// Package colibri implements the paper's primary contribution: a scalable,
// distributed realization of the LRSCwait reservation queue (Section IV).
//
// Instead of a per-bank hardware queue with one entry per core, each bank
// controller holds only a parameterizable number of head/tail register
// pairs (one pair per concurrently tracked address), and every core owns a
// single hardware queue node (Qnode). An LRwait to a non-empty queue
// appends the core at the tail and links it to its predecessor by sending
// a SuccessorUpdate message to the predecessor's Qnode. When the head core
// finishes (its SCwait passes its Qnode), the Qnode sends a WakeUpRequest
// carrying the successor back to the controller, which promotes the
// successor and releases its withheld LRwait response. Storage is
// O(cores + 2·queues·banks) — linear in system size.
//
// The controller in this file is the memory-side half (a mem.Adapter); the
// core-side half is Qnode.
package colibri

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/mem"
)

// headState tracks the lifecycle of a queue's head entry.
type headState uint8

const (
	// headServedLR: the head's LRwait was answered; its reservation is
	// armed until a write to the address or its SCwait.
	headServedLR headState = iota
	// headServedMwait: the head is an Mwait monitoring the address.
	headServedMwait
	// headAwaitWakeUp: the head was dequeued (SCwait or Mwait fire) but
	// the queue is not empty; the controller is waiting for the
	// WakeUpRequest that names the successor.
	headAwaitWakeUp
)

// queue is one head/tail register pair: the controller-side anchor of a
// distributed linked list of Qnodes.
type queue struct {
	valid        bool
	addr         uint32
	head, tail   int
	state        headState
	resValid     bool
	headExpected uint32 // headServedMwait only
}

// Controller is the Colibri bank-side adapter.
type Controller struct {
	queues []queue
	// Stats counts the policy events every reservation adapter shares;
	// Refused counts LRwait/Mwait requests that found no free head/tail
	// pair. Colibri's protocol traffic is counted by the Qnodes.
	Stats mem.AdapterStats
}

// NewController returns a controller with numQueues head/tail register
// pairs (the paper evaluates 1, 2, 4 and 8).
func NewController(numQueues int) *Controller {
	if numQueues <= 0 {
		panic(fmt.Sprintf("colibri: NewController(%d)", numQueues))
	}
	return &Controller{queues: make([]queue, numQueues)}
}

// AdapterStats implements mem.StatsReporter.
func (c *Controller) AdapterStats() mem.AdapterStats { return c.Stats }

// ActiveQueues returns the number of currently allocated queues (tests).
func (c *Controller) ActiveQueues() int {
	n := 0
	for i := range c.queues {
		if c.queues[i].valid {
			n++
		}
	}
	return n
}

func (c *Controller) findQueue(addr uint32) *queue {
	for i := range c.queues {
		if c.queues[i].valid && c.queues[i].addr == addr {
			return &c.queues[i]
		}
	}
	return nil
}

func (c *Controller) freeQueue() *queue {
	for i := range c.queues {
		if !c.queues[i].valid {
			return &c.queues[i]
		}
	}
	return nil
}

// Handle implements mem.Adapter.
func (c *Controller) Handle(req bus.Request, s mem.Storage, out []bus.Response) []bus.Response {
	if resp, wrote, ok := mem.HandleBasic(req, s); ok {
		out = append(out, resp)
		if wrote {
			out = c.onWrite(req.Addr, s, out)
		}
		return out
	}
	switch req.Op {
	case bus.LRWait, bus.MWait:
		return c.handleWait(req, s, out)
	case bus.SCWait:
		return c.handleSCWait(req, s, out)
	case bus.WakeUpReq, bus.WakeUpMWait:
		return c.handleWakeUp(req, s, out)
	case bus.LR:
		// Plain LRSC is superseded on a Colibri bank; read without a
		// reservation so the SC fails and software retries with the
		// wait pair.
		return append(out, req.Reply(s.Read(req.Addr), false))
	case bus.SC:
		c.Stats.SCFail++
		return append(out, req.Reply(0, false))
	}
	return append(out, req.Reply(0, false))
}

// handleWait processes LRwait and Mwait: allocate or append to a queue.
func (c *Controller) handleWait(req bus.Request, s mem.Storage, out []bus.Response) []bus.Response {
	if q := c.findQueue(req.Addr); q != nil {
		// Append behind the current tail and link via SuccessorUpdate.
		// The update piggybacks the successor's operation and expected
		// value so the eventual WakeUpRequest can serve it directly.
		oldTail := q.tail
		q.tail = req.Src
		return append(out, bus.SuccessorUpdate(oldTail, req))
	}
	q := c.freeQueue()
	if q == nil {
		// All head/tail pairs busy: refuse immediately. The core's
		// following SCwait will fail, putting software on its retry
		// path (Section III-B's LRSCwait_q fallback behaviour).
		c.Stats.Refused++
		return append(out, req.Reply(s.Read(req.Addr), false))
	}
	val := s.Read(req.Addr)
	if req.Op == bus.MWait && val != req.Data {
		// Value already changed: notify immediately, no queue needed.
		c.Stats.Grants++
		return append(out, req.Reply(val, true))
	}
	*q = queue{valid: true, addr: req.Addr, head: req.Src, tail: req.Src}
	if req.Op == bus.MWait {
		q.state = headServedMwait
		q.headExpected = req.Data
		return out // response withheld until the value changes
	}
	q.state = headServedLR
	q.resValid = true
	c.Stats.Grants++
	return append(out, req.Reply(val, true))
}

func (c *Controller) handleSCWait(req bus.Request, s mem.Storage, out []bus.Response) []bus.Response {
	q := c.findQueue(req.Addr)
	if q == nil || q.head != req.Src || q.state != headServedLR {
		// No valid reservation (refused LRwait, stale SCwait): fail.
		c.Stats.SCFail++
		return append(out, req.Reply(0, false))
	}
	ok := q.resValid
	if ok {
		s.Write(req.Addr, req.Data)
		c.Stats.SCSuccess++
	} else {
		c.Stats.SCFail++
	}
	// The SCwait yields the queue whether or not it succeeded.
	c.dequeueHead(q)
	return append(out, req.Reply(0, ok))
}

// dequeueHead retires the current head. If the head was alone the queue is
// freed; otherwise the controller waits for the WakeUpRequest that will
// name the successor (sent by the retiring head's Qnode).
func (c *Controller) dequeueHead(q *queue) {
	if q.head == q.tail {
		q.valid = false
		return
	}
	q.state = headAwaitWakeUp
	q.resValid = false
}

func (c *Controller) handleWakeUp(req bus.Request, s mem.Storage, out []bus.Response) []bus.Response {
	q := c.findQueue(req.Addr)
	if q == nil || q.state != headAwaitWakeUp {
		// Protocol violation: a WakeUpRequest is only ever generated for
		// a dequeued-but-nonempty queue (Section IV-A.2's consistency
		// argument). Fail loudly — this is the protocol monitor.
		panic(fmt.Sprintf("colibri: stray WakeUpRequest for addr %#x at bank %d",
			req.Addr, s.BankID()))
	}
	succ := req.Waiter()
	q.head = succ.Src
	val := s.Read(req.Addr)
	if succ.Op == bus.MWait {
		if val != succ.Data {
			// Fire immediately; the grant auto-bounces the next
			// WakeUpRequest from the successor's Qnode (wake cascade).
			c.Stats.Grants++
			c.dequeueHead(q)
			return append(out, succ.Reply(val, true))
		}
		q.state = headServedMwait
		q.headExpected = succ.Data
		return out
	}
	q.state = headServedLR
	q.resValid = true
	c.Stats.Grants++
	return append(out, succ.Reply(val, true))
}

// onWrite runs after every committed plain write: invalidate an armed
// reservation or fire a monitoring Mwait head.
func (c *Controller) onWrite(addr uint32, s mem.Storage, out []bus.Response) []bus.Response {
	q := c.findQueue(addr)
	if q == nil {
		return out
	}
	switch q.state {
	case headServedLR:
		if q.resValid {
			q.resValid = false
			c.Stats.Invalidations++
		}
	case headServedMwait:
		if v := s.Read(addr); v != q.headExpected {
			c.Stats.Grants++
			out = append(out, bus.Request{Op: bus.MWait, Addr: addr, Src: q.head}.Reply(v, true))
			c.dequeueHead(q)
		}
	case headAwaitWakeUp:
		// Nothing reserved between dequeue and wake-up.
	}
	return out
}
