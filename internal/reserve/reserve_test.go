package reserve

import (
	"testing"

	"repro/internal/bus"
)

// fakeStore is a map-backed Storage for adapter unit tests.
type fakeStore struct {
	words map[uint32]uint32
}

func newFakeStore() *fakeStore { return &fakeStore{words: map[uint32]uint32{}} }

func (f *fakeStore) Read(addr uint32) uint32     { return f.words[addr] }
func (f *fakeStore) Write(addr uint32, v uint32) { f.words[addr] = v }
func (f *fakeStore) BankID() int                 { return 0 }

func lr(core int, addr uint32) bus.Request {
	return bus.Request{Op: bus.LR, Addr: addr, Src: core}
}
func sc(core int, addr, data uint32) bus.Request {
	return bus.Request{Op: bus.SC, Addr: addr, Data: data, Src: core}
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

func TestSingleSlotBasicLRSC(t *testing.T) {
	s := newFakeStore()
	s.Write(0, 41)
	a := NewSingleSlot()
	r := a.Handle(lr(0, 0), s, nil)
	if len(r) != 1 || !r[0].OK || r[0].Data != 41 {
		t.Fatalf("LR = %v", r)
	}
	r = a.Handle(sc(0, 0, 42), s, nil)
	if len(r) != 1 || !r[0].OK {
		t.Fatalf("SC = %v", r)
	}
	if s.Read(0) != 42 {
		t.Errorf("memory = %d, want 42", s.Read(0))
	}
	// Second SC without a new LR fails.
	r = a.Handle(sc(0, 0, 43), s, nil)
	if r[0].OK {
		t.Error("SC without reservation succeeded")
	}
}

func TestSingleSlotOccupancy(t *testing.T) {
	s := newFakeStore()
	a := NewSingleSlot()
	a.Handle(lr(0, 0), s, nil)
	// The slot is held: core 1's LR reads the value but gets no
	// reservation (MemPool's blocking single slot).
	if r := a.Handle(lr(1, 0), s, nil); len(r) != 1 || !r[0].OK {
		t.Fatalf("second LR = %v, want a plain read", r)
	}
	if r := a.Handle(sc(1, 0, 9), s, nil); r[0].OK {
		t.Error("reservation-less SC succeeded")
	}
	// The holder is not displaced.
	if r := a.Handle(sc(0, 0, 1), s, nil); !r[0].OK {
		t.Error("holder's SC failed")
	}
	if s.Read(0) != 1 {
		t.Errorf("memory = %d, want 1", s.Read(0))
	}
	// The holder's SC freed the slot: core 1 can now reserve.
	a.Handle(lr(1, 0), s, nil)
	if r := a.Handle(sc(1, 0, 2), s, nil); !r[0].OK {
		t.Error("SC after slot freed failed")
	}
	if s.Read(0) != 2 {
		t.Errorf("memory = %d, want 2", s.Read(0))
	}
}

func TestSingleSlotFailedSCFreesSlot(t *testing.T) {
	s := newFakeStore()
	a := NewSingleSlot()
	a.Handle(lr(0, 0), s, nil)
	a.Handle(st(2, 0, 7), s, nil) // invalidates, slot still held by core 0
	if r := a.Handle(sc(0, 0, 1), s, nil); r[0].OK {
		t.Error("SC succeeded after invalidation")
	}
	// The failed SC released the slot.
	a.Handle(lr(1, 0), s, nil)
	if r := a.Handle(sc(1, 0, 8), s, nil); !r[0].OK {
		t.Error("slot not freed by the holder's failed SC")
	}
}

func TestSingleSlotHolderCanRetarget(t *testing.T) {
	s := newFakeStore()
	a := NewSingleSlot()
	a.Handle(lr(0, 0), s, nil)
	a.Handle(lr(0, 4), s, nil) // holder moves its reservation
	if r := a.Handle(sc(0, 4, 5), s, nil); !r[0].OK {
		t.Error("retargeted SC failed")
	}
	if s.Read(4) != 5 {
		t.Error("retargeted SC did not write")
	}
}

func TestSingleSlotInvalidationByStore(t *testing.T) {
	s := newFakeStore()
	a := NewSingleSlot()
	a.Handle(lr(0, 0), s, nil)
	a.Handle(st(1, 0, 9), s, nil)
	if r := a.Handle(sc(0, 0, 1), s, nil); r[0].OK {
		t.Error("SC after intervening store succeeded")
	}
	if s.Read(0) != 9 {
		t.Error("intervening store lost")
	}
	// Store to a different address must not invalidate.
	a.Handle(lr(0, 0), s, nil)
	a.Handle(st(1, 4, 9), s, nil)
	if r := a.Handle(sc(0, 0, 1), s, nil); !r[0].OK {
		t.Error("SC invalidated by unrelated store")
	}
}

func TestSingleSlotRefusesLRWait(t *testing.T) {
	s := newFakeStore()
	a := NewSingleSlot()
	if r := a.Handle(lrw(0, 0), s, nil); len(r) != 1 || r[0].OK {
		t.Errorf("LRwait on single-slot = %v, want immediate refusal", r)
	}
	if r := a.Handle(scw(0, 0, 1), s, nil); r[0].OK {
		t.Error("SCwait on single-slot succeeded")
	}
}

func TestTableIndependentReservations(t *testing.T) {
	s := newFakeStore()
	a := NewTable(4)
	a.Handle(lr(0, 0), s, nil)
	a.Handle(lr(1, 0), s, nil) // does NOT displace core 0
	if r := a.Handle(sc(0, 0, 10), s, nil); !r[0].OK {
		t.Error("core 0 SC failed despite table entry")
	}
	// Core 0's successful SC invalidated core 1's reservation.
	if r := a.Handle(sc(1, 0, 20), s, nil); r[0].OK {
		t.Error("core 1 SC succeeded after core 0's write")
	}
	if s.Read(0) != 10 {
		t.Errorf("memory = %d, want 10", s.Read(0))
	}
}

func TestTableDifferentAddresses(t *testing.T) {
	s := newFakeStore()
	a := NewTable(4)
	a.Handle(lr(0, 0), s, nil)
	a.Handle(lr(1, 4), s, nil)
	if r := a.Handle(sc(1, 4, 1), s, nil); !r[0].OK {
		t.Error("unrelated reservation was disturbed")
	}
	if r := a.Handle(sc(0, 0, 1), s, nil); !r[0].OK {
		t.Error("reservation lost without any write to its address")
	}
}

func TestWaitQueueImmediateGrant(t *testing.T) {
	s := newFakeStore()
	s.Write(0, 5)
	a := NewWaitQueue(8)
	r := a.Handle(lrw(0, 0), s, nil)
	if len(r) != 1 || !r[0].OK || r[0].Data != 5 {
		t.Fatalf("first LRwait = %v, want immediate grant of 5", r)
	}
	r = a.Handle(scw(0, 0, 6), s, nil)
	if len(r) != 1 || !r[0].OK {
		t.Fatalf("SCwait = %v", r)
	}
	if s.Read(0) != 6 {
		t.Errorf("memory = %d, want 6", s.Read(0))
	}
	if a.Pending() != 0 {
		t.Errorf("slots leaked: %d", a.Pending())
	}
}

func TestWaitQueueOrderedGrants(t *testing.T) {
	s := newFakeStore()
	a := NewWaitQueue(8)
	if r := a.Handle(lrw(0, 0), s, nil); len(r) != 1 {
		t.Fatal("core 0 not granted")
	}
	if r := a.Handle(lrw(1, 0), s, nil); len(r) != 0 {
		t.Fatalf("core 1 got premature response %v", r)
	}
	if r := a.Handle(lrw(2, 0), s, nil); len(r) != 0 {
		t.Fatal("core 2 got premature response")
	}
	// Core 0 finishes: core 1 must be granted in the same handling.
	r := a.Handle(scw(0, 0, 100), s, nil)
	if len(r) != 2 {
		t.Fatalf("SCwait produced %d responses, want ack+grant", len(r))
	}
	if r[0].Dst != 0 || !r[0].OK {
		t.Errorf("ack = %v", r[0])
	}
	if r[1].Dst != 1 || !r[1].OK || r[1].Data != 100 {
		t.Errorf("grant = %v, want core 1 with value 100", r[1])
	}
	// Core 2 is served after core 1, not before.
	r = a.Handle(scw(1, 0, 200), s, nil)
	if len(r) != 2 || r[1].Dst != 2 || r[1].Data != 200 {
		t.Fatalf("second handoff = %v", r)
	}
}

func TestWaitQueueInterveningStoreFailsSCWait(t *testing.T) {
	s := newFakeStore()
	a := NewWaitQueue(8)
	a.Handle(lrw(0, 0), s, nil)
	a.Handle(lrw(1, 0), s, nil)
	a.Handle(st(5, 0, 77), s, nil) // invalidates core 0's reservation
	r := a.Handle(scw(0, 0, 1), s, nil)
	if r[0].OK {
		t.Error("SCwait succeeded despite intervening store")
	}
	// The queue still advances: core 1 granted with the stored value.
	if len(r) != 2 || r[1].Dst != 1 || r[1].Data != 77 {
		t.Fatalf("promotion after failed SCwait = %v", r)
	}
	if s.Read(0) != 77 {
		t.Error("failed SCwait overwrote memory")
	}
	// Core 1's fresh reservation is valid.
	if r := a.Handle(scw(1, 0, 88), s, nil); !r[0].OK {
		t.Error("promoted core's SCwait failed")
	}
}

func TestWaitQueueFullRefusal(t *testing.T) {
	s := newFakeStore()
	a := NewWaitQueue(2)
	a.Handle(lrw(0, 0), s, nil)
	a.Handle(lrw(1, 0), s, nil)
	r := a.Handle(lrw(2, 0), s, nil)
	if len(r) != 1 || r[0].OK {
		t.Fatalf("LRwait into full queue = %v, want immediate refusal", r)
	}
	if a.Stats.Refused != 1 {
		t.Errorf("refusals = %d, want 1", a.Stats.Refused)
	}
	// A refused core's SCwait fails and does not disturb the queue.
	if r := a.Handle(scw(2, 0, 9), s, nil); r[0].OK {
		t.Error("refused core's SCwait succeeded")
	}
	if a.Pending() != 2 {
		t.Errorf("queue corrupted: %d slots", a.Pending())
	}
}

func TestWaitQueuePerAddressIndependence(t *testing.T) {
	s := newFakeStore()
	a := NewWaitQueue(8)
	r0 := a.Handle(lrw(0, 0), s, nil)
	r1 := a.Handle(lrw(1, 4), s, nil)
	if len(r0) != 1 || len(r1) != 1 {
		t.Fatal("independent addresses were serialized")
	}
	if r := a.Handle(scw(1, 4, 1), s, nil); !r[0].OK {
		t.Error("addr-4 SCwait failed")
	}
	if r := a.Handle(scw(0, 0, 1), s, nil); !r[0].OK {
		t.Error("addr-0 SCwait failed")
	}
}

func TestWaitQueueMwaitMonitors(t *testing.T) {
	s := newFakeStore()
	s.Write(0, 3)
	a := NewWaitQueue(8)
	// Expected matches current value: monitor until it changes.
	if r := a.Handle(mw(0, 0, 3), s, nil); len(r) != 0 {
		t.Fatalf("Mwait fired early: %v", r)
	}
	// A store of the same value does not wake.
	if r := a.Handle(st(1, 0, 3), s, nil); len(r) != 1 {
		t.Fatalf("same-value store woke the monitor: %v", r)
	}
	// A real change wakes with the new value.
	r := a.Handle(st(1, 0, 9), s, nil)
	if len(r) != 2 || r[1].Dst != 0 || r[1].Data != 9 || !r[1].OK {
		t.Fatalf("store did not wake monitor: %v", r)
	}
	if a.Pending() != 0 {
		t.Error("monitor slot leaked")
	}
}

func TestWaitQueueMwaitImmediateWhenChanged(t *testing.T) {
	s := newFakeStore()
	s.Write(0, 10)
	a := NewWaitQueue(8)
	r := a.Handle(mw(0, 0, 3), s, nil) // expected 3, actual 10
	if len(r) != 1 || !r[0].OK || r[0].Data != 10 {
		t.Fatalf("Mwait on already-changed value = %v", r)
	}
}

func TestWaitQueueMwaitCascade(t *testing.T) {
	s := newFakeStore()
	s.Write(0, 0)
	a := NewWaitQueue(8)
	// Three cores monitor for a change away from 0.
	a.Handle(mw(0, 0, 0), s, nil)
	a.Handle(mw(1, 0, 0), s, nil)
	a.Handle(mw(2, 0, 0), s, nil)
	r := a.Handle(st(9, 0, 1), s, nil)
	// Store ack + all three wakes (the whole queue wakes, Section IV-B).
	if len(r) != 4 {
		t.Fatalf("wake cascade produced %d responses, want 4", len(r))
	}
	order := []int{r[1].Dst, r[2].Dst, r[3].Dst}
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("wake order = %v, want FIFO [0 1 2]", order)
	}
}

func TestWaitQueueMixedLRwaitMwait(t *testing.T) {
	s := newFakeStore()
	s.Write(0, 0)
	a := NewWaitQueue(8)
	a.Handle(lrw(0, 0), s, nil)   // granted
	a.Handle(mw(1, 0, 0), s, nil) // waits behind core 0
	r := a.Handle(scw(0, 0, 5), s, nil)
	// Ack + Mwait fires (value 5 != expected 0).
	if len(r) != 2 || r[1].Dst != 1 || r[1].Data != 5 {
		t.Fatalf("mixed queue handoff = %v", r)
	}
}

func TestWaitQueueSCWithoutLRFails(t *testing.T) {
	s := newFakeStore()
	a := NewWaitQueue(4)
	if r := a.Handle(scw(0, 0, 1), s, nil); r[0].OK {
		t.Error("SCwait without reservation succeeded")
	}
	if r := a.Handle(sc(0, 0, 1), s, nil); r[0].OK {
		t.Error("plain SC on waitqueue unit succeeded")
	}
}
