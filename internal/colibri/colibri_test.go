package colibri

import (
	"testing"
	"testing/quick"

	"repro/internal/bus"
	"repro/internal/engine"
)

// fakeStore is a map-backed mem.Storage.
type fakeStore struct{ words map[uint32]uint32 }

func newFakeStore() *fakeStore            { return &fakeStore{words: map[uint32]uint32{}} }
func (f *fakeStore) Read(a uint32) uint32 { return f.words[a] }
func (f *fakeStore) Write(a, v uint32)    { f.words[a] = v }
func (f *fakeStore) BankID() int          { return 0 }

// chanSink is an unbounded ReqSink recording injection order.
type chanSink struct{ q []bus.Request }

func (s *chanSink) TryPush(r bus.Request) bool { s.q = append(s.q, r); return true }
func (s *chanSink) pop() (bus.Request, bool) {
	if len(s.q) == 0 {
		return bus.Request{}, false
	}
	r := s.q[0]
	s.q = s.q[1:]
	return r, true
}

func lrw(core int, addr uint32) bus.Request {
	return bus.Request{Op: bus.LRWait, Addr: addr, Src: core}
}
func scw(core int, addr, data uint32) bus.Request {
	return bus.Request{Op: bus.SCWait, Addr: addr, Data: data, Src: core}
}
func mw(core int, addr, expected uint32) bus.Request {
	return bus.Request{Op: bus.MWait, Addr: addr, Data: expected, Src: core}
}
func st(core int, addr, data uint32) bus.Request {
	return bus.Request{Op: bus.Store, Addr: addr, Data: data, Src: core}
}

// --- Controller-only unit tests (messages handled synchronously) ---

func TestControllerSingleEpisode(t *testing.T) {
	s := newFakeStore()
	s.Write(0, 7)
	c := NewController(4)
	r := c.Handle(lrw(0, 0), s, nil)
	if len(r) != 1 || !r[0].OK || r[0].Data != 7 {
		t.Fatalf("LRwait = %v", r)
	}
	if c.ActiveQueues() != 1 {
		t.Fatalf("active queues = %d", c.ActiveQueues())
	}
	r = c.Handle(scw(0, 0, 8), s, nil)
	if len(r) != 1 || !r[0].OK {
		t.Fatalf("SCwait = %v", r)
	}
	if s.Read(0) != 8 {
		t.Errorf("memory = %d, want 8", s.Read(0))
	}
	if c.ActiveQueues() != 0 {
		t.Error("alone head did not free its queue")
	}
}

func TestControllerEnqueueSendsSuccessorUpdate(t *testing.T) {
	s := newFakeStore()
	c := NewController(4)
	c.Handle(lrw(0, 0), s, nil)
	r := c.Handle(lrw(1, 0), s, nil)
	if len(r) != 1 {
		t.Fatalf("second LRwait responses = %v", r)
	}
	su := r[0]
	if su.Kind != bus.RespSuccUpdate || su.Dst != 0 || su.Waiter() != lrw(1, 0) {
		t.Fatalf("SuccessorUpdate = %+v", su)
	}
	// Core 1 must NOT have received a response.
	for _, resp := range r {
		if resp.Kind == bus.RespNormal && resp.Dst == 1 {
			t.Error("waiting core received a premature response")
		}
	}
}

func TestControllerWakeUpPromotes(t *testing.T) {
	s := newFakeStore()
	c := NewController(4)
	c.Handle(lrw(0, 0), s, nil)
	c.Handle(lrw(1, 0), s, nil) // SuccessorUpdate to 0 (delivered out of band)
	r := c.Handle(scw(0, 0, 42), s, nil)
	if len(r) != 1 || !r[0].OK {
		t.Fatalf("SCwait = %v", r)
	}
	if c.ActiveQueues() != 1 {
		t.Fatal("queue freed while a waiter existed")
	}
	// Qnode 0 bounces the WakeUpRequest naming core 1.
	wr := bus.WakeUp(lrw(1, 0))
	r = c.Handle(wr, s, nil)
	if len(r) != 1 || r[0].Dst != 1 || !r[0].OK || r[0].Data != 42 {
		t.Fatalf("promotion grant = %v", r)
	}
	// Core 1 alone now; its SCwait frees the queue.
	r = c.Handle(scw(1, 0, 43), s, nil)
	if !r[0].OK || c.ActiveQueues() != 0 {
		t.Fatalf("final SCwait = %v, queues = %d", r, c.ActiveQueues())
	}
}

func TestControllerStrayWakeUpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("stray WakeUpRequest did not panic")
		}
	}()
	s := newFakeStore()
	c := NewController(2)
	c.Handle(bus.WakeUp(lrw(1, 0)), s, nil)
}

func TestControllerRefusesWhenNoFreeQueue(t *testing.T) {
	s := newFakeStore()
	c := NewController(1)
	c.Handle(lrw(0, 0), s, nil)
	r := c.Handle(lrw(1, 4), s, nil) // different address, no free pair
	if len(r) != 1 || r[0].OK {
		t.Fatalf("refusal = %v", r)
	}
	if c.Stats.Refused != 1 {
		t.Errorf("refused = %d", c.Stats.Refused)
	}
	// Same address is fine (joins the existing queue).
	r = c.Handle(lrw(2, 0), s, nil)
	if len(r) != 1 || r[0].Kind != bus.RespSuccUpdate {
		t.Fatalf("same-address enqueue = %v", r)
	}
}

func TestControllerStoreInvalidatesReservation(t *testing.T) {
	s := newFakeStore()
	c := NewController(2)
	c.Handle(lrw(0, 0), s, nil)
	c.Handle(st(9, 0, 5), s, nil)
	r := c.Handle(scw(0, 0, 1), s, nil)
	if r[0].OK {
		t.Error("SCwait succeeded after intervening store")
	}
	if s.Read(0) != 5 {
		t.Error("failed SCwait wrote memory")
	}
	if c.ActiveQueues() != 0 {
		t.Error("failed SCwait did not yield the queue")
	}
}

func TestControllerMwaitMonitorAndFire(t *testing.T) {
	s := newFakeStore()
	s.Write(0, 1)
	c := NewController(2)
	if r := c.Handle(mw(0, 0, 1), s, nil); len(r) != 0 {
		t.Fatalf("Mwait fired early: %v", r)
	}
	// Same-value store: no fire.
	if r := c.Handle(st(9, 0, 1), s, nil); len(r) != 1 {
		t.Fatalf("same-value store fired monitor: %v", r)
	}
	r := c.Handle(st(9, 0, 2), s, nil)
	if len(r) != 2 || r[1].Dst != 0 || r[1].Data != 2 {
		t.Fatalf("monitor fire = %v", r)
	}
	if c.ActiveQueues() != 0 {
		t.Error("alone Mwait head did not free its queue")
	}
}

func TestControllerMwaitImmediateWhenAlreadyChanged(t *testing.T) {
	s := newFakeStore()
	s.Write(0, 10)
	c := NewController(2)
	r := c.Handle(mw(0, 0, 3), s, nil)
	if len(r) != 1 || !r[0].OK || r[0].Data != 10 {
		t.Fatalf("already-changed Mwait = %v", r)
	}
	if c.ActiveQueues() != 0 {
		t.Error("immediate Mwait allocated a queue")
	}
}

// --- Qnode unit tests ---

func TestQnodeForwardsAndTracks(t *testing.T) {
	sink := &chanSink{}
	n := NewQnode(3, sink)
	if !n.TryIssue(lrw(3, 0)) {
		t.Fatal("LRwait injection failed")
	}
	if _, ok := n.Deliver(lrw(3, 0).Reply(5, true)); !ok {
		t.Fatal("grant swallowed")
	}
	if !n.TryIssue(scw(3, 0, 6)) {
		t.Fatal("SCwait injection failed")
	}
	// No successor: nothing beyond the SCwait on the wire.
	if len(sink.q) != 2 {
		t.Fatalf("wire has %d messages, want 2", len(sink.q))
	}
	if _, ok := n.Deliver(scw(3, 0, 6).Reply(0, true)); !ok {
		t.Fatal("SC response swallowed")
	}
	if !n.Idle() {
		t.Errorf("qnode not idle after episode: %s", n.State())
	}
}

func TestQnodeWakeUpFollowsSCWait(t *testing.T) {
	sink := &chanSink{}
	n := NewQnode(0, sink)
	n.TryIssue(lrw(0, 0))
	n.Deliver(lrw(0, 0).Reply(0, true))
	// Successor arrives while the core computes.
	n.Deliver(bus.SuccessorUpdate(0, lrw(7, 0)))
	n.TryIssue(scw(0, 0, 1))
	if len(sink.q) != 3 {
		t.Fatalf("wire has %d messages, want LRwait+SCwait+WakeUp", len(sink.q))
	}
	if sink.q[1].Op != bus.SCWait || sink.q[2].Op != bus.WakeUpReq {
		t.Fatalf("order broken: %v then %v", sink.q[1].Op, sink.q[2].Op)
	}
	if got := sink.q[2].Waiter(); got != lrw(7, 0) {
		t.Errorf("wake-up successor = %v, want core 7's LRwait", got)
	}
}

func TestQnodeLateSuccessorUpdateBounces(t *testing.T) {
	sink := &chanSink{}
	n := NewQnode(0, sink)
	n.TryIssue(lrw(0, 0))
	n.Deliver(lrw(0, 0).Reply(0, true))
	n.TryIssue(scw(0, 0, 1)) // successor unknown: scPassed
	// SuccessorUpdate arrives after the SCwait went by: bounce.
	n.Deliver(bus.SuccessorUpdate(0, lrw(9, 0)))
	last := sink.q[len(sink.q)-1]
	if last.Op != bus.WakeUpReq || last.Waiter() != lrw(9, 0) {
		t.Fatalf("bounce = %v", last)
	}
	if n.Stats.Bounces != 1 {
		t.Errorf("bounces = %d", n.Stats.Bounces)
	}
	n.Deliver(scw(0, 0, 1).Reply(0, true))
	if !n.Idle() {
		t.Errorf("not idle: %s", n.State())
	}
}

func TestQnodeMwaitAutoCascade(t *testing.T) {
	sink := &chanSink{}
	n := NewQnode(0, sink)
	n.TryIssue(mw(0, 0, 0))
	n.Deliver(bus.SuccessorUpdate(0, mw(4, 0, 0)))
	// The Mwait grant itself triggers the wake-up — no core action.
	_, delivered := n.Deliver(mw(0, 0, 0).Reply(1, true))
	if !delivered {
		t.Fatal("Mwait grant swallowed")
	}
	last := sink.q[len(sink.q)-1]
	if last.Op != bus.WakeUpMWait || last.Waiter() != mw(4, 0, 0) {
		t.Fatalf("cascade wake-up = %v", last)
	}
	if !n.Idle() {
		t.Errorf("not idle: %s", n.State())
	}
}

func TestQnodeDoubleOutstandingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("second outstanding LRwait did not panic")
		}
	}()
	n := NewQnode(0, &chanSink{})
	n.TryIssue(lrw(0, 0))
	n.TryIssue(lrw(0, 4))
}

func TestQnodeSCWithoutGrantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SCwait without grant did not panic")
		}
	}()
	n := NewQnode(0, &chanSink{})
	n.TryIssue(scw(0, 0, 1))
}

// --- Full protocol property test ---
//
// A mini network delivers messages between N qnode-driven cores and one
// controller with random interleavings (per-channel FIFO order preserved,
// as the real fabric guarantees). Every core performs K atomic increments
// with LRwait/SCwait; a rogue writer occasionally stores to the contended
// word. Invariants: all cores finish (starvation freedom), the final
// memory value equals the number of successful SCwaits, every slot is
// reclaimed, and every qnode drains to idle.

type propCore struct {
	node    *Qnode
	sink    *chanSink
	state   int // 0 idle, 1 wait grant, 2 granted, 3 wait sc
	val     uint32
	done    int
	retries int
}

func runProtocolSwarm(t *testing.T, seed uint64, nCores, increments, numQueues int, rogue bool) {
	t.Helper()
	rng := engine.NewRNG(seed)
	s := newFakeStore()
	ctrl := NewController(numQueues)
	const addr = 0

	cores := make([]*propCore, nCores)
	toCore := make([][]bus.Response, nCores)
	for i := range cores {
		sink := &chanSink{}
		cores[i] = &propCore{node: NewQnode(i, sink), sink: sink}
	}

	successes := uint32(0)
	rogueWrites := 0
	deliveredToBank := func(r bus.Request) {
		for _, resp := range ctrl.Handle(r, s, nil) {
			if resp.Dst >= nCores {
				continue // rogue writer's store ack: nobody waits for it
			}
			toCore[resp.Dst] = append(toCore[resp.Dst], resp)
		}
	}

	for step := 0; step < 4_000_000; step++ {
		allDone := true
		for _, c := range cores {
			if c.done < increments {
				allDone = false
				break
			}
		}
		if allDone {
			// Drain remaining protocol traffic.
			quiet := true
			for _, c := range cores {
				c.node.Tick()
				if len(c.sink.q) > 0 || !c.node.Idle() {
					quiet = false
				}
			}
			for i := range toCore {
				if len(toCore[i]) > 0 {
					quiet = false
				}
			}
			if quiet {
				break
			}
		}

		switch rng.Intn(4) {
		case 0: // a core acts
			i := rng.Intn(nCores)
			c := cores[i]
			c.node.Tick()
			switch c.state {
			case 0:
				if c.done < increments && !c.node.Busy() {
					if c.node.TryIssue(lrw(i, addr)) {
						c.state = 1
					}
				}
			case 2:
				if !c.node.Busy() && c.node.TryIssue(scw(i, addr, c.val+1)) {
					c.state = 3
				}
			}
		case 1: // deliver one request from a random core channel to the bank
			i := rng.Intn(nCores)
			if r, ok := cores[i].sink.pop(); ok {
				deliveredToBank(r)
			}
		case 2: // deliver one response to a random core
			i := rng.Intn(nCores)
			if len(toCore[i]) > 0 {
				resp := toCore[i][0]
				toCore[i] = toCore[i][1:]
				if out, ok := cores[i].node.Deliver(resp); ok {
					c := cores[i]
					switch out.Op {
					case bus.LRWait:
						c.val = out.Data
						c.state = 2
					case bus.SCWait:
						if out.OK {
							c.done++
							successes++
						} else {
							c.retries++
						}
						c.state = 0
					}
				}
			}
		case 3: // rogue writer
			if rogue && rng.Intn(50) == 0 && rogueWrites < 100 {
				deliveredToBank(st(999, addr, s.Read(addr)+1000))
				rogueWrites++
			}
		}
	}

	for i, c := range cores {
		if c.done != increments {
			t.Fatalf("seed %d: core %d finished %d/%d increments (starvation?)",
				seed, i, c.done, increments)
		}
		if !c.node.Idle() {
			t.Fatalf("seed %d: qnode %d not idle: %s", seed, i, c.node.State())
		}
	}
	if ctrl.ActiveQueues() != 0 {
		t.Fatalf("seed %d: %d queues leaked", seed, ctrl.ActiveQueues())
	}
	want := successes + 1000*uint32(rogueWrites)
	if got := s.Read(addr); got != want {
		t.Fatalf("seed %d: memory = %d, want %d (successes %d, rogue %d)",
			seed, got, want, successes, rogueWrites)
	}
	if successes != uint32(nCores*increments) {
		t.Fatalf("seed %d: successes = %d, want %d", seed, successes, nCores*increments)
	}
}

func TestProtocolSwarmDeterministic(t *testing.T) {
	runProtocolSwarm(t, 1, 4, 8, 2, false)
	runProtocolSwarm(t, 2, 8, 5, 1, false)
	runProtocolSwarm(t, 3, 3, 10, 4, true)
}

func TestProtocolSwarmProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		runProtocolSwarm(t, seed, 5, 4, 2, true)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMwaitBroadcastSwarm: one writer flips a flag; all waiting cores wake
// exactly once, in queue order, via the distributed cascade.
func TestMwaitBroadcastSwarm(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		rng := engine.NewRNG(seed)
		s := newFakeStore()
		ctrl := NewController(1)
		const addr, nWaiters = 0, 6

		nodes := make([]*Qnode, nWaiters)
		sinks := make([]*chanSink, nWaiters)
		toCore := make([][]bus.Response, nWaiters)
		woken := make([]bool, nWaiters)
		var wakeOrder []int
		for i := range nodes {
			sinks[i] = &chanSink{}
			nodes[i] = NewQnode(i, sinks[i])
		}

		// All waiters issue Mwait(expected=0) in index order; the harness
		// delivers the requests to the bank in a random order, which is
		// the order that defines the queue (FIFO at the controller).
		var enqueueOrder []int
		issued, delivered := 0, 0
		storeDone := false
		for step := 0; step < 100000; step++ {
			action := rng.Intn(3)
			if action == 0 && issued < nWaiters {
				if nodes[issued].TryIssue(mw(issued, addr, 0)) {
					issued++
				}
				continue
			}
			if action == 1 {
				i := rng.Intn(nWaiters)
				nodes[i].Tick()
				if r, ok := sinks[i].pop(); ok {
					if r.Op == bus.MWait {
						enqueueOrder = append(enqueueOrder, r.Src)
					}
					for _, resp := range ctrl.Handle(r, s, nil) {
						toCore[resp.Dst] = append(toCore[resp.Dst], resp)
					}
					delivered++
				}
				continue
			}
			// Deliver responses; once all waiters are enqueued, fire the store.
			if issued == nWaiters && delivered >= nWaiters && !storeDone {
				for _, resp := range ctrl.Handle(st(99, addr, 1), s, nil) {
					if resp.Dst >= nWaiters {
						continue // writer's store ack
					}
					toCore[resp.Dst] = append(toCore[resp.Dst], resp)
				}
				storeDone = true
				continue
			}
			i := rng.Intn(nWaiters)
			if len(toCore[i]) > 0 {
				resp := toCore[i][0]
				toCore[i] = toCore[i][1:]
				if out, ok := nodes[i].Deliver(resp); ok && out.Op == bus.MWait {
					if woken[i] {
						t.Fatalf("seed %d: core %d woken twice", seed, i)
					}
					woken[i] = true
					wakeOrder = append(wakeOrder, i)
					if out.Data != 1 {
						t.Fatalf("seed %d: woke with stale value %d", seed, out.Data)
					}
				}
			}
			if len(wakeOrder) == nWaiters {
				break
			}
		}
		if len(wakeOrder) != nWaiters {
			t.Fatalf("seed %d: only %d of %d waiters woke (%v)", seed, len(wakeOrder), nWaiters, wakeOrder)
		}
		for i := range wakeOrder {
			if wakeOrder[i] != enqueueOrder[i] {
				t.Fatalf("seed %d: wake order %v != controller arrival order %v",
					seed, wakeOrder, enqueueOrder)
			}
		}
		if ctrl.ActiveQueues() != 0 {
			t.Fatalf("seed %d: queues leaked", seed)
		}
	}
}
