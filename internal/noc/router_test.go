package noc

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bus"
	"repro/internal/engine"
)

// refTick is the output-major arbitration that Router.Tick replaced,
// kept as the differential reference: every output, in ascending order,
// scans all inputs from its round-robin pointer for the first cached
// head routed to it. It shares Tick's input pass and caches, so any
// difference between the two lies in which outputs arbitration visits.
func refTick[T any](r *Router[T]) int {
	any := false
	for i, f := range r.in {
		if head, ok := f.Peek(); ok {
			r.heads[i] = head
			r.ro[i] = int32(r.route(head))
			any = true
		} else {
			r.ro[i] = -1
		}
	}
	if !any {
		return 0
	}
	n := len(r.in)
	moved := 0
	for o := range r.out {
		if r.out[o].Full() {
			continue
		}
		oo := int32(o)
		for k, i := 0, r.rr[o]; k < n; k++ {
			if i >= n {
				i -= n
			}
			if r.ro[i] == oo {
				if !r.out[o].Push(r.heads[i]) {
					break // aliased output filled by an earlier port
				}
				r.in[i].Pop()
				r.ro[i] = -1
				if r.rr[o] = i + 1; r.rr[o] == n {
					r.rr[o] = 0
				}
				moved++
				break
			}
			i++
		}
	}
	r.Forwards += uint64(moved)
	return moved
}

// routerShape is one port configuration of the differential test.
// alias, when set, makes output port 2 share port 1's FIFO.
type routerShape struct {
	name      string
	ins, outs int
	alias     bool
}

var routerShapes = []routerShape{
	{name: "tile-9x36", ins: 9, outs: 36},
	{name: "group-4x32", ins: 4, outs: 32},
	{name: "link-32x1", ins: 32, outs: 1},
	{name: "4x4", ins: 4, outs: 4},
	{name: "alias-3x3", ins: 3, outs: 3, alias: true},
}

// diffSide is one copy of a router under test with its own clock and
// ports. Messages are unique ints; a message routes to v % outs.
type diffSide struct {
	clock engine.Clock
	in    []*engine.FIFO[int]
	out   []*engine.FIFO[int] // per port; aliased ports repeat a FIFO
	r     *Router[int]
}

func newDiffSide(sh routerShape, depths []int) *diffSide {
	d := &diffSide{}
	for i := 0; i < sh.ins; i++ {
		d.in = append(d.in, engine.NewFIFO[int](depths[i], &d.clock))
	}
	for o := 0; o < sh.outs; o++ {
		if sh.alias && o == 2 {
			d.out = append(d.out, d.out[1])
			continue
		}
		d.out = append(d.out, engine.NewFIFO[int](depths[sh.ins+o], &d.clock))
	}
	outs := sh.outs
	d.r = NewRouter("diff", d.in, d.out, func(v int) int { return v % outs })
	return d
}

// state captures what a no-op tick must leave unchanged.
type routerState struct {
	inLen, outLen []int
	rr            []int
	forwards      uint64
}

func (d *diffSide) state() routerState {
	s := routerState{rr: append([]int(nil), d.r.rr...), forwards: d.r.Forwards}
	for _, f := range d.in {
		s.inLen = append(s.inLen, f.Len())
	}
	for _, f := range d.out {
		s.outLen = append(s.outLen, f.Len())
	}
	return s
}

// TestRouterTickMatchesReference drives the targeted-arbitration Tick
// and the output-major reference with the same seeded traffic — random
// occupancy regimes, hot and uniform destinations, random FIFO depths,
// bursts of downstream backpressure — and requires equal moved counts,
// FIFO contents (entries, timestamps, ring positions) and rr pointers
// after every tick. When Tick leaves the router Stalled, the next tick
// runs with no output drained and must be an exact no-op, even with new
// messages pushed behind the blocked heads.
func TestRouterTickMatchesReference(t *testing.T) {
	const ticks = 10000
	for si, sh := range routerShapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(si + 1)))
			depths := make([]int, sh.ins+sh.outs)
			for i := range depths {
				depths[i] = 1 + rng.Intn(3)
			}
			ref, got := newDiffSide(sh, depths), newDiffSide(sh, depths)
			next := 0
			var pushP, popP float64
			var hot int
			// After a Stalled tick, the next tick drains nothing and must
			// be a no-op; the tick after that drains again.
			noopNext, stalls, moves := false, 0, 0
			for tick := 0; tick < ticks; tick++ {
				if tick%250 == 0 {
					pushP = []float64{0.05, 0.3, 0.7, 1}[rng.Intn(4)]
					popP = []float64{0, 0.1, 0.5, 1}[rng.Intn(4)]
					hot = rng.Intn(3) // 0: uniform destinations; else 1..2 hot outputs
				}
				ref.clock.Advance()
				got.clock.Advance()
				noop := noopNext
				if !noop {
					for o, f := range got.out {
						if o == 2 && sh.alias {
							continue // drained through port 1
						}
						if rng.Float64() < popP {
							rv, rok := ref.out[o].Pop()
							gv, gok := f.Pop()
							if rv != gv || rok != gok {
								t.Fatalf("tick %d: output %d popped %d/%v, reference %d/%v", tick, o, gv, gok, rv, rok)
							}
						}
					}
				}
				for i := range got.in {
					if rng.Float64() >= pushP {
						continue
					}
					dst := rng.Intn(sh.outs)
					if hot > 0 {
						dst = rng.Intn(hot) % sh.outs
					}
					v := next*sh.outs + dst
					next++
					if rok, gok := ref.in[i].Push(v), got.in[i].Push(v); rok != gok {
						t.Fatalf("tick %d: input %d push %v, reference %v", tick, i, gok, rok)
					}
				}
				before := got.state()
				rm, gm := refTick(ref.r), got.r.Tick()
				if rm != gm {
					t.Fatalf("tick %d: moved %d, reference %d", tick, gm, rm)
				}
				if !reflect.DeepEqual(ref.in, got.in) || !reflect.DeepEqual(ref.out, got.out) {
					t.Fatalf("tick %d: FIFO contents diverged from reference", tick)
				}
				if !reflect.DeepEqual(ref.r.rr, got.r.rr) || ref.r.Forwards != got.r.Forwards {
					t.Fatalf("tick %d: rr %v forwards %d, reference rr %v forwards %d",
						tick, got.r.rr, got.r.Forwards, ref.r.rr, ref.r.Forwards)
				}
				if noop {
					if after := got.state(); gm != 0 || !reflect.DeepEqual(before, after) {
						t.Fatalf("tick %d: stalled router changed state: moved %d\nbefore %+v\nafter  %+v",
							tick, gm, before, after)
					}
					stalls++
				}
				moves += gm
				stalled := got.r.Stalled()
				noopNext = stalled && !noop
				if stalled && !got.r.Busy() {
					t.Fatalf("tick %d: an empty router reports itself stalled", tick)
				}
			}
			if stalls < 100 || moves < ticks/10 {
				t.Fatalf("weak coverage: %d stalled ticks, %d moves in %d ticks", stalls, moves, ticks)
			}
		})
	}
}

// fabricStep runs one scheduled cycle of a one-partition fabric, as the
// kernel does, and returns the number of routers it ticked.
func fabricStep(f *Fabric, clk *engine.Clock, sc *PartScratch) int {
	f.SnapshotShard(0, sc)
	n := 0
	for c := 0; c < numClasses; c++ {
		n += f.TickShardClass(sc, c)
	}
	clk.Advance()
	return n
}

// TestFabricWakeOnSpace follows one tile router through a sleep: it
// parks when its only head waits on a full bank port, costs no ticks
// while asleep, is re-dirtied by the pop that frees the port, and — once
// drained and awake — is not re-dirtied by later pops of that port.
func TestFabricWakeOnSpace(t *testing.T) {
	var clk engine.Clock
	f := NewFabric(Small(), &clk, 2)
	f.Shard(1, func(int) int { return 0 })
	var sc PartScratch
	const tile = 0 // request router index of tile 0
	r := f.reqRouters[tile]

	f.BankReq[0].Push(bus.Request{Op: bus.Load, Addr: 0, Src: 9})
	f.BankReq[0].Push(bus.Request{Op: bus.Load, Addr: 0, Src: 9})
	f.CoreReq[0].Push(bus.Request{Op: bus.Load, Addr: 0, Src: 0})
	clk.Advance()
	if n := fabricStep(f, &clk, &sc); n != 1 {
		t.Fatalf("first cycle ticked %d routers, want 1", n)
	}
	if f.reqDirty.Contains(tile) || !f.reqAsleep.Contains(tile) || r.sleeps != 1 {
		t.Fatalf("blocked tile router: dirty=%v asleep=%v sleeps=%d, want asleep",
			f.reqDirty.Contains(tile), f.reqAsleep.Contains(tile), r.sleeps)
	}
	for i := 0; i < 3; i++ {
		if n := fabricStep(f, &clk, &sc); n != 0 {
			t.Fatalf("sleeping fabric ticked %d routers", n)
		}
	}
	if f.Busy() {
		t.Fatal("fabric with only a sleeping router reports busy")
	}

	f.BankReq[0].Pop()
	if !f.reqDirty.Contains(tile) || f.reqAsleep.Contains(tile) || r.spaceWakes != 1 {
		t.Fatalf("after pop: dirty=%v asleep=%v wakes=%d, want woken once",
			f.reqDirty.Contains(tile), f.reqAsleep.Contains(tile), r.spaceWakes)
	}
	fabricStep(f, &clk, &sc)
	if f.BankReq[0].Len() != 2 || f.reqDirty.Contains(tile) || f.reqAsleep.Contains(tile) {
		t.Fatalf("woken router did not forward and go idle: bank queue %d, dirty=%v asleep=%v",
			f.BankReq[0].Len(), f.reqDirty.Contains(tile), f.reqAsleep.Contains(tile))
	}
	clk.Advance()
	f.BankReq[0].Pop()
	if f.reqDirty.Contains(tile) || r.spaceWakes != 1 {
		t.Fatalf("pops of an awake router's output re-dirtied it: dirty=%v wakes=%d",
			f.reqDirty.Contains(tile), r.spaceWakes)
	}

	// A push wakes a sleeping router too. Once its tick makes progress
	// it is awake, so a later pop of the port its old head still waits
	// on is no wake.
	f.BankReq[0].Push(bus.Request{Op: bus.Load, Addr: 0, Src: 9})
	f.CoreReq[0].Push(bus.Request{Op: bus.Load, Addr: 0, Src: 0})
	clk.Advance()
	fabricStep(f, &clk, &sc)
	if !f.reqAsleep.Contains(tile) || r.sleeps != 2 {
		t.Fatalf("blocked again: asleep=%v sleeps=%d, want asleep", f.reqAsleep.Contains(tile), r.sleeps)
	}
	f.CoreReq[1].Push(bus.Request{Op: bus.Load, Addr: 4, Src: 1})
	f.CoreReq[1].Push(bus.Request{Op: bus.Load, Addr: 4, Src: 1})
	clk.Advance()
	fabricStep(f, &clk, &sc)
	if !f.reqDirty.Contains(tile) || f.reqAsleep.Contains(tile) {
		t.Fatalf("push-woken router mid-drain: dirty=%v asleep=%v, want awake",
			f.reqDirty.Contains(tile), f.reqAsleep.Contains(tile))
	}
	f.BankReq[0].Pop()
	if r.spaceWakes != 1 {
		t.Fatalf("pop of an awake router's output counted as a wake: %d wakes", r.spaceWakes)
	}
}

// TestFabricSleepChain backs a hot spot up the whole request path of
// the small topology — tile ingress, group router, link, link arbiter,
// tile egress — and checks who sleeps: the blocked tile routers and the
// link arbiter do, the group router keeps polling (so the fabric never
// looks quiet across tiles while an arbiter sleeps). Draining the bank
// then wakes the chain hop by hop until every message is delivered and
// the fabric is clean.
func TestFabricSleepChain(t *testing.T) {
	var clk engine.Clock
	topo := Small()
	f := NewFabric(topo, &clk, 2)
	f.Shard(1, func(int) int { return 0 })
	var sc PartScratch
	const bank = 32 // first bank of tile 2, the first tile of group 1
	dstTile := topo.TileOfBank(bank)
	link := f.linkStart + 0*topo.NumGroups + 1 // arbiter 0→1
	group := f.groupStart + 1
	req := func(src int) bus.Request { return bus.Request{Op: bus.Load, Addr: 4 * bank, Src: src} }

	f.BankReq[bank].Push(req(99))
	f.BankReq[bank].Push(req(99))
	ingress := f.reqRouters[group].out[dstTile%topo.TilesPerGroup]
	ingress.Push(req(98))
	ingress.Push(req(98))
	sent := 4
	for c := 0; c < topo.CoresPerTile; c++ {
		for k := 0; k < 2; k++ {
			f.CoreReq[c].Push(req(c))
			sent++
		}
	}
	clk.Advance()
	for i := 0; i < 20; i++ {
		fabricStep(f, &clk, &sc)
	}
	for _, c := range []struct {
		name   string
		id     int
		asleep bool
	}{
		{"destination tile router", dstTile, true},
		{"source tile router", 0, true},
		{"link arbiter", link, true},
		{"group router", group, false},
	} {
		if got := f.reqAsleep.Contains(c.id); got != c.asleep {
			t.Errorf("%s: asleep=%v, want %v", c.name, got, c.asleep)
		}
		if got := f.reqDirty.Contains(c.id); got == c.asleep {
			t.Errorf("%s: dirty=%v, want %v", c.name, got, !c.asleep)
		}
	}
	if f.QuietCrossTile() {
		t.Error("QuietCrossTile with a sleeping link arbiter")
	}

	delivered := 0
	for i := 0; i < 200 && delivered < sent; i++ {
		if _, ok := f.BankReq[bank].Pop(); ok {
			delivered++
		}
		fabricStep(f, &clk, &sc)
	}
	if delivered != sent {
		t.Fatalf("delivered %d of %d messages", delivered, sent)
	}
	if f.Busy() || f.reqAsleep.Any() || f.InFlight() != 0 {
		t.Fatalf("drained fabric: busy=%v asleep=%v in flight %d", f.Busy(), f.reqAsleep.Any(), f.InFlight())
	}
	slept, woken := f.SleepStats()
	if slept == 0 || woken == 0 {
		t.Fatalf("SleepStats = %d slept, %d woken; want both > 0", slept, woken)
	}
}
