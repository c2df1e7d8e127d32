package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestActiveSetBasics(t *testing.T) {
	s := MakeActiveSet(200)
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	for _, id := range []int{0, 63, 64, 65, 199, 7} {
		s.Add(id)
	}
	s.Add(63) // idempotent
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	if !s.Contains(64) || s.Contains(66) {
		t.Fatal("Contains wrong")
	}
	got := s.AppendTo(nil)
	want := []int{0, 7, 63, 64, 65, 199}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendTo = %v, want %v (ascending)", got, want)
	}
	s.Remove(64)
	s.Remove(64) // idempotent
	if s.Len() != 5 || s.Contains(64) {
		t.Fatal("Remove wrong")
	}
}

// TestActiveSetIterationOrder checks the set against a map model under
// seeded random Add, Remove and AppendTo calls. Iteration must be
// ascending regardless of insertion order — the determinism contract of
// the scheduled kernel. The sizes straddle word (64) and summary-word
// (4096) boundaries; the ID draw is skewed toward a few hot IDs and the
// set is drained now and then, so words and summary words empty out and
// refill.
func TestActiveSetIterationOrder(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 4096, 4097, 5000} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := MakeActiveSet(n)
		model := map[int]bool{}
		hot := []int{0, n - 1, n / 2, rng.Intn(n)}
		var buf []int
		for step := 0; step < 6000; step++ {
			id := rng.Intn(n)
			if rng.Intn(2) == 0 {
				id = hot[rng.Intn(len(hot))]
			}
			switch op := rng.Intn(20); {
			case op < 8:
				s.Add(id)
				model[id] = true
			case op < 16:
				s.Remove(id)
				delete(model, id)
			case op == 16 && rng.Intn(10) == 0:
				for k := range model {
					s.Remove(k)
					delete(model, k)
				}
			default:
				want := make([]int, 0, len(model))
				for k := range model {
					want = append(want, k)
				}
				sort.Ints(want)
				buf = s.AppendTo(buf[:0])
				if !reflect.DeepEqual(buf, want) && len(buf)+len(want) > 0 {
					t.Fatalf("n=%d step %d: AppendTo = %v, want %v", n, step, buf, want)
				}
				// A stale summary bit costs no correctness, only the
				// empty-word visits the summary exists to skip.
				for wi, w := range s.words {
					if on := s.summary[wi>>6]&(1<<uint(wi&63)) != 0; on != (w != 0) {
						t.Fatalf("n=%d step %d: summary bit %d = %v for word %#x", n, step, wi, on, w)
					}
				}
			}
			if s.Len() != len(model) || s.Empty() != (len(model) == 0) {
				t.Fatalf("n=%d step %d: Len %d Empty %v, model has %d",
					n, step, s.Len(), s.Empty(), len(model))
			}
			if s.Contains(id) != model[id] {
				t.Fatalf("n=%d step %d: Contains(%d) = %v", n, step, id, s.Contains(id))
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { buf = s.AppendTo(buf[:0]) }); allocs != 0 {
			t.Errorf("n=%d: AppendTo into a reused slice allocates %.0f times", n, allocs)
		}
	}
}

func TestSchedulerWakeHeap(t *testing.T) {
	s := NewScheduler(16)
	s.WakeAt(3, 50)
	s.WakeAt(1, 10)
	s.WakeAt(2, 10)
	s.WakeAt(4, 30)

	if at, ok := s.NextWake(); !ok || at != 10 {
		t.Fatalf("NextWake = %d,%v want 10,true", at, ok)
	}
	var woke []int
	s.WakeDue(10, func(id int) { woke = append(woke, id) })
	// Ties pop in ascending ID order.
	if !reflect.DeepEqual(woke, []int{1, 2}) {
		t.Fatalf("WakeDue(10) woke %v, want [1 2]", woke)
	}
	if !s.Runnable(1) || !s.Runnable(2) || s.Runnable(3) {
		t.Fatal("active set not updated by WakeDue")
	}
	if at, _ := s.NextWake(); at != 30 {
		t.Fatalf("NextWake after pop = %d, want 30", at)
	}
	woke = woke[:0]
	s.WakeDue(29, func(id int) { woke = append(woke, id) })
	if len(woke) != 0 {
		t.Fatalf("WakeDue(29) woke %v, want none", woke)
	}
	s.WakeDue(100, func(id int) { woke = append(woke, id) })
	if !reflect.DeepEqual(woke, []int{4, 3}) {
		t.Fatalf("WakeDue(100) woke %v, want [4 3] (cycle order)", woke)
	}
	if _, ok := s.NextWake(); ok {
		t.Fatal("heap should be empty")
	}
}

// TestSchedulerHeapPresized pins that a fresh scheduler holds one
// pending timer per component without growing its heap, so a kernel
// that parks every core on a timer allocates nothing.
func TestSchedulerHeapPresized(t *testing.T) {
	const n = 256
	s := NewScheduler(n)
	before := cap(s.heap)
	for id := 0; id < n; id++ {
		s.WakeAt(id, Cycle(n-id))
	}
	if cap(s.heap) != before {
		t.Errorf("%d pending timers grew the heap from capacity %d to %d", n, before, cap(s.heap))
	}
}

func TestSchedulerSleepWake(t *testing.T) {
	s := NewScheduler(8)
	if s.AnyRunnable() {
		t.Fatal("new scheduler has runnables")
	}
	s.Wake(5)
	s.Wake(2)
	if got := s.AppendRunnable(nil); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Fatalf("AppendRunnable = %v", got)
	}
	s.Sleep(5)
	if s.Runnable(5) || !s.AnyRunnable() {
		t.Fatal("Sleep wrong")
	}
}

// TestFIFOWakes: a FIFO's wakes are data. A successful push sets its
// occupancy bit and adds its consumer to the set; a refused push wakes
// nothing. A successful pop moves an asleep producer to the dirty set
// exactly once and counts one space wake; a pop whose producer is not
// asleep, or a refused pop, changes no set. A push wake without a set
// (a standalone router's) still tracks occupancy.
func TestFIFOWakes(t *testing.T) {
	var clock Clock
	f := NewFIFO[int](2, &clock)
	var occ uint64
	consumers := MakeActiveSet(8)
	producers := Sleepers{Dirty: MakeActiveSet(8), Asleep: MakeActiveSet(8)}
	f.WakeOnPush(PushWake{Occ: &occ, Bit: 1 << 5, Set: &consumers, ID: 3})
	f.WakeOnPop(PopWake{Sleep: &producers, ID: 6})

	f.Push(1)
	if occ != 1<<5 || consumers.Len() != 1 || !consumers.Contains(3) {
		t.Fatalf("push: occ %#x consumers %v, want bit 5 and {3}", occ, consumers.AppendTo(nil))
	}
	f.Push(2)
	occ = 0
	consumers.Remove(3)
	if f.Push(3) {
		t.Fatal("push into full FIFO succeeded")
	}
	if occ != 0 || !consumers.Empty() {
		t.Fatalf("refused push woke: occ %#x consumers %v", occ, consumers.AppendTo(nil))
	}

	producers.Asleep.Add(6)
	if _, ok := f.Pop(); ok {
		t.Fatal("pop of same-cycle entry succeeded")
	}
	if !producers.Asleep.Contains(6) || !producers.Dirty.Empty() || producers.SpaceWakes != 0 {
		t.Fatal("refused pop woke the producer")
	}
	clock.Advance()
	f.Pop()
	if producers.Asleep.Contains(6) || !producers.Dirty.Contains(6) || producers.SpaceWakes != 1 {
		t.Fatalf("pop: asleep=%v dirty=%v wakes=%d, want woken once",
			producers.Asleep.Contains(6), producers.Dirty.Contains(6), producers.SpaceWakes)
	}
	// The producer is awake now: the next pop is no wake, and leaves a
	// set it is no longer in alone.
	producers.Dirty.Remove(6)
	f.Pop()
	if !producers.Asleep.Empty() || !producers.Dirty.Empty() || producers.SpaceWakes != 1 {
		t.Fatalf("pop of an awake producer's output: asleep %v dirty %v wakes %d",
			producers.Asleep.AppendTo(nil), producers.Dirty.AppendTo(nil), producers.SpaceWakes)
	}

	// Occupancy without a set.
	g := NewFIFO[int](1, &clock)
	g.WakeOnPush(PushWake{Occ: &occ, Bit: 1})
	occ = 0
	g.Push(1)
	if occ != 1 {
		t.Fatalf("set-less push wake: occ %#x, want 1", occ)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance()
	c.AdvanceTo(10)
	if c.Now() != 10 {
		t.Fatalf("Now = %d, want 10", c.Now())
	}
	c.AdvanceTo(5) // never rewinds
	if c.Now() != 10 {
		t.Fatalf("Now = %d after backwards AdvanceTo, want 10", c.Now())
	}
}
