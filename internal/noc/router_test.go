package noc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bus"
	"repro/internal/engine"
)

// refTick is the output-major, all-inputs arbitration that Router.Tick
// replaced, kept as the differential reference: it peeks and routes
// every input's head afresh into its own per-call arrays, then visits
// every output in ascending order and scans all inputs from its
// round-robin pointer for the first head routed to it. It reads only
// the router's ports, rr and route, none of Tick's masks or request
// sets.
func refTick[T any](r *Router[T]) int {
	n := len(r.in)
	heads := make([]T, n)
	ro := make([]int, n)
	any := false
	for i, f := range r.in {
		ro[i] = -1
		if head, ok := f.Peek(); ok {
			heads[i], ro[i] = head, r.route(head)
			any = true
		}
	}
	if !any {
		return 0
	}
	moved := 0
	for o := range r.out {
		out := &r.out[o]
		if out.q.Full() {
			continue
		}
		for k, i := 0, out.rr; k < n; k++ {
			if i >= n {
				i -= n
			}
			if ro[i] == o {
				if !out.q.Push(heads[i]) {
					break // aliased output filled by an earlier port
				}
				r.in[i].Pop()
				ro[i] = -1
				if out.rr = i + 1; out.rr == n {
					out.rr = 0
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

// fifoState flattens everything a FIFO holds — its head index and
// count, then each ring slot's entry and timestamp — for comparing two
// FIFOs. The push and pop wakes are left out: they point into each
// side's own router, so reflect.DeepEqual over the FIFOs cannot be used.
func fifoState(f *engine.FIFO[int]) []int64 {
	v := reflect.ValueOf(f).Elem()
	buf := v.FieldByName("buf")
	s := []int64{v.FieldByName("head").Int(), v.FieldByName("count").Int()}
	for k := 0; k < buf.Len(); k++ {
		e := buf.Index(k) // entry{val, at}
		s = append(s, e.Field(0).Int(), e.Field(1).Int())
	}
	return s
}

// diffFIFO returns the first port whose FIFO state differs, or -1.
func diffFIFO(a, b []*engine.FIFO[int]) int {
	for k := range a {
		if !slices.Equal(fifoState(a[k]), fifoState(b[k])) {
			return k
		}
	}
	return -1
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
	{name: "tile-resp-33x12", ins: 33, outs: 12},
	// MaxPorts on both sides: the highest bit of every port set.
	{name: "full-64x64", ins: 64, outs: 64},
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
	s := routerState{rr: d.r.rrs(), forwards: d.r.Forwards}
	for _, f := range d.in {
		s.inLen = append(s.inLen, f.Len())
	}
	for _, f := range d.out {
		s.outLen = append(s.outLen, f.Len())
	}
	return s
}

// rrs returns the router's round-robin pointers, one per output.
func (r *Router[T]) rrs() []int {
	rr := make([]int, len(r.out))
	for o, out := range r.out {
		rr[o] = out.rr
	}
	return rr
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
				if k := diffFIFO(ref.in, got.in); k >= 0 {
					t.Fatalf("tick %d: input %d state %v, reference %v",
						tick, k, fifoState(got.in[k]), fifoState(ref.in[k]))
				}
				if k := diffFIFO(ref.out, got.out); k >= 0 {
					t.Fatalf("tick %d: output %d state %v, reference %v",
						tick, k, fifoState(got.out[k]), fifoState(ref.out[k]))
				}
				if !slices.Equal(ref.r.rrs(), got.r.rrs()) || ref.r.Forwards != got.r.Forwards {
					t.Fatalf("tick %d: rr %v forwards %d, reference rr %v forwards %d",
						tick, got.r.rrs(), got.r.Forwards, ref.r.rrs(), ref.r.Forwards)
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

// fabricStep runs one scheduled cycle of the fabric, as the kernel
// does, and returns the number of routers it ticked.
func fabricStep(f *Fabric, clk *engine.Clock, d *Dirty) int {
	f.SnapshotDirty(d)
	n := f.TickDirty(d)
	clk.Advance()
	return n
}

// TestFabricWakeOnSpace follows tile 0's router of each network
// through a sleep: it parks when its only head waits on a full delivery
// port (BankReq or CoreResp), costs no ticks while asleep, is
// re-dirtied exactly once by the pop that frees the port, and — once
// drained and awake — is not re-dirtied by later pops of that port.
func TestFabricWakeOnSpace(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, f *Fabric, clk *engine.Clock)
	}{
		{"request", func(t *testing.T, f *Fabric, clk *engine.Clock) {
			wakeOnSpace(t, f, clk, requests(f), f.CoreReq, f.BankReq, func(bank int) bus.Request {
				return bus.Request{Op: bus.Load, Addr: uint32(4 * bank)}
			})
		}},
		{"response", func(t *testing.T, f *Fabric, clk *engine.Clock) {
			wakeOnSpace(t, f, clk, responses(f), f.BankResp, f.CoreResp, func(core int) bus.Response {
				return bus.Response{Dst: core}
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var clk engine.Clock
			tc.run(t, NewFabric(Small(), &clk, 2), &clk)
		})
	}
}

// wakeOnSpace runs TestFabricWakeOnSpace on one network of f: src and
// dst are its injection and delivery ports, and to(d) is a message for
// delivery port d, which must be in tile 0 for d = 0 and 1.
func wakeOnSpace[T any](t *testing.T, f *Fabric, clk *engine.Clock, net *network[T],
	src, dst []*engine.FIFO[T], to func(d int) T) {
	var sc Dirty
	const tile = 0 // router index of tile 0
	r := &net.routers[tile]
	dirty := func() bool { return net.wake.Dirty.Contains(tile) }
	asleep := func() bool { return net.wake.Asleep.Contains(tile) }

	dst[0].Push(to(0))
	dst[0].Push(to(0))
	src[0].Push(to(0))
	clk.Advance()
	if n := fabricStep(f, clk, &sc); n != 1 {
		t.Fatalf("first cycle ticked %d routers, want 1", n)
	}
	if dirty() || !asleep() || r.sleeps != 1 {
		t.Fatalf("blocked tile router: dirty=%v asleep=%v sleeps=%d, want asleep", dirty(), asleep(), r.sleeps)
	}
	for i := 0; i < 3; i++ {
		if n := fabricStep(f, clk, &sc); n != 0 {
			t.Fatalf("sleeping fabric ticked %d routers", n)
		}
	}
	if f.Busy() {
		t.Fatal("fabric with only a sleeping router reports busy")
	}

	dst[0].Pop()
	if !dirty() || asleep() || net.wake.SpaceWakes != 1 {
		t.Fatalf("after pop: dirty=%v asleep=%v wakes=%d, want woken once", dirty(), asleep(), net.wake.SpaceWakes)
	}
	fabricStep(f, clk, &sc)
	if dst[0].Len() != 2 || dirty() || asleep() {
		t.Fatalf("woken router did not forward and go idle: delivery queue %d, dirty=%v asleep=%v",
			dst[0].Len(), dirty(), asleep())
	}
	clk.Advance()
	dst[0].Pop()
	if dirty() || net.wake.SpaceWakes != 1 {
		t.Fatalf("pops of an awake router's output re-dirtied it: dirty=%v wakes=%d", dirty(), net.wake.SpaceWakes)
	}

	// A push wakes a sleeping router too. Once its tick makes progress
	// it is awake, so a later pop of the port its old head still waits
	// on is no wake.
	dst[0].Push(to(0))
	src[0].Push(to(0))
	clk.Advance()
	fabricStep(f, clk, &sc)
	if !asleep() || r.sleeps != 2 {
		t.Fatalf("blocked again: asleep=%v sleeps=%d, want asleep", asleep(), r.sleeps)
	}
	src[1].Push(to(1))
	src[1].Push(to(1))
	clk.Advance()
	fabricStep(f, clk, &sc)
	if !dirty() || asleep() {
		t.Fatalf("push-woken router mid-drain: dirty=%v asleep=%v, want awake", dirty(), asleep())
	}
	dst[0].Pop()
	if net.wake.SpaceWakes != 1 {
		t.Fatalf("pop of an awake router's output counted as a wake: %d wakes", net.wake.SpaceWakes)
	}
}

// TestFabricSleepChain backs a hot spot up the whole request path of
// the small topology — tile ingress, group router, link, link arbiter,
// tile egress — and checks who sleeps: the blocked tile routers and the
// link arbiter do, the group router keeps polling. Draining the bank
// then wakes the chain hop by hop until every message is delivered and
// the fabric is clean.
func TestFabricSleepChain(t *testing.T) {
	var clk engine.Clock
	topo := Small()
	f := NewFabric(topo, &clk, 2)
	var sc Dirty
	const bank = 32 // first bank of tile 2, the first tile of group 1
	dstTile := bank / topo.BanksPerTile
	link := topo.NumTiles() + 0*topo.NumGroups + 1 // arbiter 0→1
	group := f.groupStart + 1
	req := func(src int) bus.Request { return bus.Request{Op: bus.Load, Addr: 4 * bank, Src: src} }

	f.BankReq[bank].Push(req(99))
	f.BankReq[bank].Push(req(99))
	net := requests(f)
	ingress := net.routers[group].out[dstTile%topo.TilesPerGroup].q
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
		if got := net.wake.Asleep.Contains(c.id); got != c.asleep {
			t.Errorf("%s: asleep=%v, want %v", c.name, got, c.asleep)
		}
		if got := net.wake.Dirty.Contains(c.id); got == c.asleep {
			t.Errorf("%s: dirty=%v, want %v", c.name, got, !c.asleep)
		}
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
	if f.Busy() || !net.wake.Asleep.Empty() || f.InFlight() != 0 {
		t.Fatalf("drained fabric: busy=%v asleep=%v in flight %d", f.Busy(), !net.wake.Asleep.Empty(), f.InFlight())
	}
	slept, woken := f.SleepStats()
	if slept == 0 || woken == 0 {
		t.Fatalf("SleepStats = %d slept, %d woken; want both > 0", slept, woken)
	}
}
