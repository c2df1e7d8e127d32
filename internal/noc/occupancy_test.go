package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bus"
	"repro/internal/engine"
)

// checkRouterCaches verifies a router's incremental state against its
// ports: occupancy bit i is set iff input i holds an entry; known is a
// subset of occ; a known input's cached head is its FIFO's visible head
// and sits in exactly one request set, the one its route names, while
// an unknown input sits in none; and want is exactly the set of outputs
// with a non-empty request set. The allocation is fine: tests only.
func checkRouterCaches[T comparable](r *Router[T]) error {
	// The request sets must be disjoint subsets of known that cover it.
	seen := make([]uint64, r.nw)
	for o := range r.out {
		set := r.req[o*r.nw : (o+1)*r.nw]
		for w, m := range set {
			if m&seen[w] != 0 {
				return fmt.Errorf("output %d: inputs %#x also request another output", o, m&seen[w])
			}
			seen[w] |= m
		}
		if wanted := r.want[o>>6]&(1<<uint(o&63)) != 0; wanted != anyBit(set) {
			return fmt.Errorf("output %d: wanted %v, requested %v", o, wanted, anyBit(set))
		}
	}
	for w := range seen {
		if seen[w] != r.known[w] {
			return fmt.Errorf("word %d: requesting inputs %#x, known %#x", w, seen[w], r.known[w])
		}
	}
	for i, q := range r.in {
		w, bit := i>>6, uint64(1)<<uint(i&63)
		occ, known := r.occ[w]&bit != 0, r.known[w]&bit != 0
		if occ != (q.Len() > 0) {
			return fmt.Errorf("input %d: occupancy bit %v, FIFO holds %d", i, occ, q.Len())
		}
		if !known {
			continue
		}
		if !occ {
			return fmt.Errorf("input %d: known but not occupied", i)
		}
		head, ok := q.Peek()
		if !ok || head != r.heads[i] {
			return fmt.Errorf("input %d: cached head %v, FIFO head %v (visible %v)", i, r.heads[i], head, ok)
		}
		if o := r.route(head); r.req[o*r.nw+w]&bit == 0 {
			return fmt.Errorf("input %d: head routes to output %d, which it does not request", i, o)
		}
	}
	return nil
}

// checkRouters runs checkRouterCaches over one network's routers.
func checkRouters[T comparable](routers []*Router[T]) error {
	for i, r := range routers {
		if err := checkRouterCaches(r); err != nil {
			return fmt.Errorf("router %d (%s): %v", i, r.Name, err)
		}
	}
	return nil
}

// requests and responses return the fabric's two networks, typed.
func requests(f *Fabric) *network[bus.Request]   { return f.nets[0].(*network[bus.Request]) }
func responses(f *Fabric) *network[bus.Response] { return f.nets[1].(*network[bus.Response]) }

// TestRouterOccupancyInvariants drives seeded random traffic with hot
// spots and phases of heavy backpressure through whole fabrics, ticked
// the way the kernel ticks them (SnapshotDirty, then TickDirty), and
// checks every router's occupancy mask, cached heads and request sets
// after every cycle. Traffic then stops and the fabric must drain
// completely.
func TestRouterOccupancyInvariants(t *testing.T) {
	for _, tc := range []struct {
		name   string
		topo   Topology
		cycles int
	}{
		{"small", Small(), 3000},
		{"terapool1024", TeraPool1024(), 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runOccupancyTraffic(t, tc.topo, tc.cycles)
		})
	}
}

// runOccupancyTraffic runs one fabric for cycles cycles of traffic plus
// a drain.
func runOccupancyTraffic(t *testing.T, topo Topology, cycles int) {
	t.Helper()
	var clk engine.Clock
	f := NewFabric(topo, &clk, 2)
	var d Dirty
	rng := rand.New(rand.NewSource(7))
	nCores, nBanks := topo.NumCores(), topo.NumBanks()
	var pushP, popP float64
	var hotBank, hotCore int
	seq := uint32(0)
	check := func(cycle int) {
		err := checkRouters(requests(f).routers)
		if err == nil {
			err = checkRouters(responses(f).routers)
		}
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	step := func(cycle int) {
		f.SnapshotDirty(&d)
		f.TickDirty(&d)
		check(cycle)
		clk.Advance()
	}
	deliver := func(drainP float64) {
		for b, q := range f.BankReq {
			p := drainP
			if b == hotBank {
				p /= 4
			}
			if rng.Float64() < p {
				q.Pop()
			}
		}
		for _, q := range f.CoreResp {
			if rng.Float64() < drainP {
				q.Pop()
			}
		}
	}
	for cycle := 0; cycle < cycles; cycle++ {
		if cycle%100 == 0 {
			pushP = []float64{0.05, 0.3, 0.8}[rng.Intn(3)]
			popP = []float64{0.05, 0.4, 1}[rng.Intn(3)]
			hotBank, hotCore = rng.Intn(nBanks), rng.Intn(nCores)
		}
		// The first core of every tile sends half its requests to the hot
		// bank, which drains at a quarter of the others' rate, so they
		// back up the tree; the first bank of every tile likewise sends
		// half its responses to the hot core. Limiting the hot sources
		// bounds the backlog, and so the drain, at TeraPool scale.
		deliver(popP)
		for c, q := range f.CoreReq {
			if rng.Float64() >= pushP {
				continue
			}
			bank := rng.Intn(nBanks)
			if c%topo.CoresPerTile == 0 && rng.Intn(2) == 0 {
				bank = hotBank
			}
			seq++
			q.Push(bus.Request{Op: bus.Load, Addr: uint32(4 * bank), Src: c, Data: seq})
		}
		for b, q := range f.BankResp {
			if rng.Float64() >= pushP/8 {
				continue
			}
			dst := rng.Intn(nCores)
			if b%topo.BanksPerTile == 0 && rng.Intn(2) == 0 {
				dst = hotCore
			}
			seq++
			q.Push(bus.Response{Dst: dst, Data: seq})
		}
		step(cycle)
	}
	for cycle := cycles; f.InFlight() > 0; cycle++ {
		if cycle > cycles+100000 {
			t.Fatalf("%d messages still in flight after the drain", f.InFlight())
		}
		hotBank = -1
		deliver(1)
		step(cycle)
	}
	if f.Busy() || !requests(f).asleep.Empty() || !responses(f).asleep.Empty() {
		t.Fatalf("drained fabric busy=%v asleep=%d/%d", f.Busy(), requests(f).asleep.Len(), responses(f).asleep.Len())
	}
	if slept, woken := f.SleepStats(); slept == 0 || woken == 0 {
		t.Fatalf("weak coverage, %d sleeps and %d space wakes", slept, woken)
	}
}
