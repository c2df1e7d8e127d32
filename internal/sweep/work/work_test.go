package work

import (
	"sync/atomic"
	"testing"
)

func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		var hits [n]atomic.Int32
		Pool{Workers: workers}.MapWorkers(n, func(_, i int) {
			hits[i].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestMapSerialPreservesOrder(t *testing.T) {
	var order []int
	Pool{Workers: 1}.MapWorkers(5, func(_, i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("serial ran %d of 5", len(order))
	}
}

func TestMapEmptyAndNegative(t *testing.T) {
	called := false
	Pool{}.MapWorkers(0, func(int, int) { called = true })
	Pool{}.MapWorkers(-3, func(int, int) { called = true })
	if called {
		t.Error("fn called for empty index space")
	}
}

// TestMapWorkersIdentity pins the worker index contract the runner's
// timeline lanes rely on: every worker index lies in [0, Size(n)).
func TestMapWorkersIdentity(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 35
		p := Pool{Workers: workers}
		size := p.Size(n)
		var bad atomic.Int32
		p.MapWorkers(n, func(w, _ int) {
			if w < 0 || w >= size {
				bad.Add(1)
			}
		})
		if bad.Load() != 0 {
			t.Fatalf("workers=%d: %d calls had a worker index outside [0, %d)", workers, bad.Load(), size)
		}
	}
}

func TestMapMoreWorkersThanItems(t *testing.T) {
	var count atomic.Int32
	Pool{Workers: 16}.MapWorkers(3, func(int, int) { count.Add(1) })
	if count.Load() != 3 {
		t.Errorf("ran %d of 3", count.Load())
	}
}
