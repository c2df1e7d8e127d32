package engine

import (
	"sync"
	"testing"
)

// TestBarrierLeaderAction drives N goroutines through many rounds of a
// shared barrier and checks its two properties: the leader action runs
// exactly once per round, and no participant enters round r+1 before
// the round-r action ran (the action's observations are of a fully
// quiesced round).
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
// a plain function call.
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
