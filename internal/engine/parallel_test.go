package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestBarrierLeaderAction drives N goroutines through many rounds of a
// shared barrier and checks the two properties the partitioned kernel
// relies on: the leader action runs exactly once per round, and no
// participant enters round r+1 before the round-r action ran (the
// action's observations are of a fully quiesced round).
func TestBarrierLeaderAction(t *testing.T) {
	const workers, rounds = 7, 200
	b := NewBarrier(workers)
	var leaderRuns int // written only inside the leader action
	perRound := make([]int, rounds)
	counts := make([][]int, workers) // counts[w][r]: w's increments seen at round r's action
	for w := range counts {
		counts[w] = make([]int, rounds)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				counts[w][r]++
				b.Wait(func() {
					leaderRuns++
					for v := 0; v < workers; v++ {
						perRound[r] += counts[v][r]
					}
				})
			}
		}(w)
	}
	wg.Wait()
	if leaderRuns != rounds {
		t.Fatalf("leader action ran %d times, want %d", leaderRuns, rounds)
	}
	for r, got := range perRound {
		if got != workers {
			t.Fatalf("round %d: leader saw %d arrivals, want %d", r, got, workers)
		}
	}
}

// TestBarrierSingleParticipant: with one participant the barrier must be
// a plain function call (the P=1 partitioned kernel).
func TestBarrierSingleParticipant(t *testing.T) {
	b := NewBarrier(1)
	ran := 0
	for i := 0; i < 10; i++ {
		b.Wait(func() { ran++ })
		b.Wait(nil)
	}
	if ran != 10 {
		t.Fatalf("action ran %d times, want 10", ran)
	}
}

// TestAtomicSetConcurrent hammers one set from several goroutines adding
// disjoint strided IDs (the cross-partition wake pattern) and checks the
// final membership is the union, then that removes leave the rest alone.
func TestAtomicSetConcurrent(t *testing.T) {
	const n, workers = 1000, 8
	s := MakeAtomicSet(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := w; id < n; id += workers {
				s.Add(id)
				s.Add(id) // idempotent
			}
		}(w)
	}
	wg.Wait()
	if !s.Any() {
		t.Fatal("set empty after adds")
	}
	for id := 0; id < n; id++ {
		if !s.Contains(id) {
			t.Fatalf("id %d missing after concurrent adds", id)
		}
	}
	// Concurrent removes of one member: exactly one caller took it.
	var took atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := 0; id < n; id += 2 {
				if s.Remove(id) {
					took.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got, want := took.Load(), int64((n+1)/2); got != want {
		t.Fatalf("%d removes reported a member, want %d (one per removed id)", got, want)
	}
	for id := 0; id < n; id++ {
		if want := id%2 == 1; s.Contains(id) != want {
			t.Fatalf("id %d: Contains=%v want %v", id, s.Contains(id), want)
		}
	}
	// Word-level view agrees with Contains.
	for w := 0; w < s.NumWords(); w++ {
		word := s.LoadWord(w)
		for b := 0; b < 64 && w*64+b < n; b++ {
			if got, want := word&(1<<uint(b)) != 0, s.Contains(w*64+b); got != want {
				t.Fatalf("word view of id %d = %v, Contains = %v", w*64+b, got, want)
			}
		}
	}
}
