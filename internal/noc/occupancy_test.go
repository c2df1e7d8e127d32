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
// subset of occ; a known input's FIFO head is visible and sits in
// exactly one request set, the one its route names, while an unknown
// input sits in none; and want is exactly the set of outputs with a
// non-empty request set.
func checkRouterCaches[T any](r *Router[T]) error {
	// The request sets must be disjoint subsets of known that cover it.
	var seen uint64
	for o, out := range r.out {
		if out.req&seen != 0 {
			return fmt.Errorf("output %d: inputs %#x also request another output", o, out.req&seen)
		}
		seen |= out.req
		if wanted := r.want&(1<<uint(o)) != 0; wanted != (out.req != 0) {
			return fmt.Errorf("output %d: wanted %v, requests %#x", o, wanted, out.req)
		}
	}
	if seen != r.known {
		return fmt.Errorf("requesting inputs %#x, known %#x", seen, r.known)
	}
	for i, q := range r.in {
		bit := uint64(1) << uint(i)
		occ, known := r.occ&bit != 0, r.known&bit != 0
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
		if !ok {
			return fmt.Errorf("input %d: known head not visible", i)
		}
		if o := r.route(head); r.out[o].req&bit == 0 {
			return fmt.Errorf("input %d: head routes to output %d, which it does not request", i, o)
		}
	}
	return nil
}

// checkRouters runs checkRouterCaches over one network's routers.
func checkRouters[T any](routers []Router[T]) error {
	for i := range routers {
		if err := checkRouterCaches(&routers[i]); err != nil {
			return fmt.Errorf("router %d (%s): %v", i, routers[i].Name, err)
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
// checks every router's occupancy mask, known heads and request sets
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
	if f.Busy() || !requests(f).wake.Asleep.Empty() || !responses(f).wake.Asleep.Empty() {
		t.Fatalf("drained fabric busy=%v asleep=%d/%d", f.Busy(), requests(f).wake.Asleep.Len(), responses(f).wake.Asleep.Len())
	}
	if slept, woken := f.SleepStats(); slept == 0 || woken == 0 {
		t.Fatalf("weak coverage, %d sleeps and %d space wakes", slept, woken)
	}
}
