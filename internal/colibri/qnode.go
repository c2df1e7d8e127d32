package colibri

import (
	"fmt"

	"repro/internal/bus"
)

// ReqSink is where a Qnode injects requests (the core's egress port into
// the request network). TryPush reports false on backpressure.
type ReqSink interface {
	TryPush(r bus.Request) bool
}

// nodeState is the Qnode's episode lifecycle for the wait operations.
type nodeState uint8

const (
	nodeIdle nodeState = iota
	// nodeWaitGrant: LRwait/Mwait issued, response not yet received.
	nodeWaitGrant
	// nodeGranted: LRwait answered; the core computes and will SCwait.
	nodeGranted
	// nodeWaitSC: SCwait issued, response not yet received.
	nodeWaitSC
)

// QnodeStats counts core-side protocol events.
type QnodeStats struct {
	SuccUpdates uint64 // SuccessorUpdates absorbed
	WakeUpsSent uint64 // WakeUpRequests injected
	Bounces     uint64 // SuccessorUpdates that bounced straight back
}

// Qnode is a core's hardware queue node: the core-side half of Colibri.
// All of the core's memory traffic passes through it. It records the
// in-flight wait operation, absorbs SuccessorUpdates (even while the core
// sleeps), and emits WakeUpRequests when the core's SCwait passes by (or,
// for Mwait, when the grant passes by — waking the whole queue without
// core involvement, Section IV-B).
//
// The Qnode also acts as the protocol monitor: sequences that violate the
// single-outstanding-LRwait rule or the pairing constraints panic rather
// than corrupting the distributed queue.
type Qnode struct {
	coreID int
	out    ReqSink

	state       nodeState
	pendingAddr uint32
	// scPassed: the SCwait went by before the successor was known; an
	// arriving SuccessorUpdate must bounce back as a WakeUpRequest.
	scPassed bool

	// Successor link (valid when linked): the successor's queued
	// LRWait or MWait, as its SuccessorUpdate delivered it.
	succ   bus.Request
	linked bool

	// wakePending holds a WakeUpRequest that could not be injected due to
	// backpressure (wakeValid set); it drains with priority over new core
	// requests. Stored by value so the hot path never heap-allocates.
	wakePending bus.Request
	wakeValid   bool

	Stats QnodeStats
}

// NewQnode returns the Qnode for core coreID injecting into out.
func NewQnode(coreID int, out ReqSink) *Qnode {
	return &Qnode{coreID: coreID, out: out}
}

// Busy reports whether the Qnode must drain protocol traffic before the
// core may inject a new request.
func (n *Qnode) Busy() bool { return n.wakeValid }

// Tick drains a pending WakeUpRequest if the network accepts it.
func (n *Qnode) Tick() {
	if n.wakeValid && n.out.TryPush(n.wakePending) {
		n.wakeValid = false
		n.Stats.WakeUpsSent++
	}
}

func (n *Qnode) sendWakeUp() {
	if !n.linked {
		panic(fmt.Sprintf("colibri: qnode %d wake-up without successor", n.coreID))
	}
	req := bus.WakeUp(n.succ)
	n.linked = false
	if n.wakeValid {
		panic(fmt.Sprintf("colibri: qnode %d double wake-up", n.coreID))
	}
	if n.out.TryPush(req) {
		n.Stats.WakeUpsSent++
		return
	}
	n.wakePending = req
	n.wakeValid = true
}

// TryIssue injects a core request into the network, updating episode
// bookkeeping. It reports false when the port is backpressured (the core
// retries next cycle). For SCwait, a known successor's WakeUpRequest is
// queued immediately behind it on the same ordered channel.
func (n *Qnode) TryIssue(req bus.Request) bool {
	if n.wakeValid {
		return false // drain protocol traffic first; preserves ordering
	}
	switch req.Op {
	case bus.LRWait, bus.MWait:
		if n.state != nodeIdle {
			panic(fmt.Sprintf("colibri: qnode %d: second outstanding %v (state %d)",
				n.coreID, req.Op, n.state))
		}
		if !n.out.TryPush(req) {
			return false
		}
		n.state = nodeWaitGrant
		n.pendingAddr = req.Addr
		return true
	case bus.SCWait:
		if n.state != nodeGranted {
			panic(fmt.Sprintf("colibri: qnode %d: SCwait without granted LRwait (state %d)",
				n.coreID, n.state))
		}
		if req.Addr != n.pendingAddr {
			panic(fmt.Sprintf("colibri: qnode %d: SCwait addr %#x != LRwait addr %#x",
				n.coreID, req.Addr, n.pendingAddr))
		}
		if !n.out.TryPush(req) {
			return false
		}
		n.state = nodeWaitSC
		if n.linked {
			// Successor already linked: the WakeUpRequest follows the
			// SCwait on the same channel, so the controller sees them
			// in order (Fig. 2 steps 5–6).
			n.sendWakeUp()
		} else {
			n.scPassed = true
		}
		return true
	default:
		return n.out.TryPush(req)
	}
}

// Deliver processes a message arriving from the response network. It
// returns the response to hand to the core; the boolean is false when the
// message was protocol-internal (a SuccessorUpdate) and nothing reaches
// the core. Returning by value keeps the response on the stack — the old
// *bus.Response signature forced a heap escape per delivered message.
func (n *Qnode) Deliver(resp bus.Response) (bus.Response, bool) {
	if resp.Kind == bus.RespSuccUpdate {
		n.Stats.SuccUpdates++
		if n.linked {
			panic(fmt.Sprintf("colibri: qnode %d: second SuccessorUpdate", n.coreID))
		}
		if n.state == nodeIdle {
			panic(fmt.Sprintf("colibri: qnode %d: SuccessorUpdate while idle", n.coreID))
		}
		n.succ, n.linked = resp.Waiter(), true
		if n.scPassed {
			// The SCwait already went by: bounce immediately.
			n.scPassed = false
			n.Stats.Bounces++
			n.sendWakeUp()
		}
		return bus.Response{}, false
	}
	switch resp.Op {
	case bus.LRWait:
		if n.state != nodeWaitGrant {
			panic(fmt.Sprintf("colibri: qnode %d: LRwait response in state %d",
				n.coreID, n.state))
		}
		// A refused LRwait (OK=false) follows the same path: the core
		// proceeds to its SCwait, which will fail, and retries.
		n.state = nodeGranted
	case bus.MWait:
		if n.state != nodeWaitGrant {
			panic(fmt.Sprintf("colibri: qnode %d: Mwait response in state %d",
				n.coreID, n.state))
		}
		// Wake cascade: pass the wake-up along without core involvement.
		if n.linked {
			n.sendWakeUp()
		}
		n.state = nodeIdle
	case bus.SCWait:
		if n.state != nodeWaitSC {
			panic(fmt.Sprintf("colibri: qnode %d: SCwait response in state %d",
				n.coreID, n.state))
		}
		// Ordering guarantees any SuccessorUpdate for this episode
		// arrived before this response; a still-set scPassed just means
		// the head was alone (the controller freed the queue).
		n.scPassed = false
		n.state = nodeIdle
	}
	return resp, true
}

// State returns a debug description (tests and tracing).
func (n *Qnode) State() string {
	states := [...]string{"idle", "wait-grant", "granted", "wait-sc"}
	succ := -1
	if n.linked {
		succ = n.succ.Src
	}
	return fmt.Sprintf("qnode%d{%s succ=%d scPassed=%v wakePending=%v}",
		n.coreID, states[n.state], succ, n.scPassed, n.wakeValid)
}

// Idle reports whether the Qnode holds no episode state (quiescence checks).
func (n *Qnode) Idle() bool {
	return n.state == nodeIdle && !n.linked && !n.scPassed && !n.wakeValid
}
