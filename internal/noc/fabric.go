package noc

import (
	"repro/internal/bus"
	"repro/internal/engine"
)

// Fabric instantiates the two networks (request and response) for a
// topology and owns every FIFO in them.
//
// The structure follows MemPool's hierarchy: every tile has one egress
// port per destination group (so traffic to different groups never blocks
// each other at the source — each tile of MemPool likewise owns a master
// port per group), a link arbiter per ordered group pair that merges the
// member tiles' traffic onto the inter-group link, and a per-group
// distribution router that fans traffic out to the destination tiles.
//
// Request path:
//
//	core egress → tile router → local bank FIFO                 (same tile)
//	            → tile egress[g] → link arbiter(g→h) → link
//	            → group-h router → tile ingress → tile router → bank
//
// The response network mirrors it from bank egress FIFOs to core response
// FIFOs. Each hop costs one cycle (timestamped FIFOs); every port moves at
// most one message per cycle; all FIFOs are bounded, so a hot spot
// backpressures into the tree (head-of-line blocking) — the congestion
// mechanism behind the paper's interference experiment — while traffic to
// other groups keeps flowing on its own ports.
type Fabric struct {
	Topo  Topology
	Clock *engine.Clock

	// CoreReq is the per-core request injection port (cores push).
	CoreReq []*engine.FIFO[bus.Request]
	// CoreResp is the per-core response delivery port (platform pops).
	CoreResp []*engine.FIFO[bus.Response]
	// BankReq is the per-bank request delivery port (banks pop).
	BankReq []*engine.FIFO[bus.Request]
	// BankResp is the per-bank response injection port (banks push).
	BankResp []*engine.FIFO[bus.Response]

	reqRouters  []*Router[bus.Request]
	respRouters []*Router[bus.Response]

	allReqFIFOs  []*engine.FIFO[bus.Request]
	allRespFIFOs []*engine.FIFO[bus.Response]

	// Router dirty sets for activity-driven ticking, one per network: a
	// router joins when a message is pushed into one of its input stages
	// (FIFO push hooks wired at construction) and leaves once it ticks
	// with every input empty, so an idle fabric costs nothing per cycle.
	// A tile router or link arbiter also leaves when it ticks Stalled:
	// it joins the asleep set instead, and the pop that frees space in
	// one of its outputs (FIFO pop hooks) moves it back — wake-on-space,
	// the fabric's own polling-free wait. Group routers never sleep (see
	// TickShardClass). All four are atomic bitsets because under the
	// partitioned kernel a wake may cross partitions (see shard.go).
	reqDirty, respDirty   engine.AtomicSet
	reqAsleep, respAsleep engine.AtomicSet
	// linkStart and groupStart are the first router indices of the link
	// arbiter and group router classes (see routerClass).
	linkStart, groupStart int
	// owned[p] selects partition p's routers (see Shard).
	owned [][]wordMask

	// rt holds the precomputed routing tables the per-router route
	// closures index instead of recomputing divisions per message.
	rt routeTables
}

// routeTables flattens every routing decision the fabric makes into
// table lookups indexed by bank or core ID. The route closures run once
// per occupied router input per cycle — the hottest call site in a
// traffic-heavy simulation — and the topology arithmetic behind them
// (BankOfAddr, TileOfBank, GroupOfBank and the response-side mirrors) is
// all integer division. The tables cost a few bytes per bank/core and
// turn each decision into one or two indexed loads.
type routeTables struct {
	// Address → bank: word-interleaved. Power-of-two bank counts (every
	// built-in topology) use the mask; others keep the modulo.
	bankMask uint32
	bankMod  uint32
	usesMask bool

	tileOfBank     []int32  // owning tile, for the local/remote branch
	bankPortLocal  []uint16 // tile-router port when the bank is tile-local
	bankPortRemote []uint16 // tile-router egress port toward the bank's group
	bankPortGroup  []uint16 // group-router port toward the bank's tile

	tileOfCore     []int32
	corePortLocal  []uint16
	corePortRemote []uint16
	corePortGroup  []uint16
}

func buildRouteTables(topo Topology) routeTables {
	nBanks, nCores := topo.NumBanks(), topo.NumCores()
	rt := routeTables{
		bankMod:        uint32(nBanks),
		bankMask:       uint32(nBanks - 1),
		usesMask:       nBanks&(nBanks-1) == 0,
		tileOfBank:     make([]int32, nBanks),
		bankPortLocal:  make([]uint16, nBanks),
		bankPortRemote: make([]uint16, nBanks),
		bankPortGroup:  make([]uint16, nBanks),
		tileOfCore:     make([]int32, nCores),
		corePortLocal:  make([]uint16, nCores),
		corePortRemote: make([]uint16, nCores),
		corePortGroup:  make([]uint16, nCores),
	}
	for b := 0; b < nBanks; b++ {
		rt.tileOfBank[b] = int32(topo.TileOfBank(b))
		rt.bankPortLocal[b] = uint16(b % topo.BanksPerTile)
		rt.bankPortRemote[b] = uint16(topo.BanksPerTile + topo.GroupOfBank(b))
		rt.bankPortGroup[b] = uint16(topo.TileOfBank(b) % topo.TilesPerGroup)
	}
	for c := 0; c < nCores; c++ {
		rt.tileOfCore[c] = int32(topo.TileOfCore(c))
		rt.corePortLocal[c] = uint16(c % topo.CoresPerTile)
		rt.corePortRemote[c] = uint16(topo.CoresPerTile + topo.GroupOfCore(c))
		rt.corePortGroup[c] = uint16(topo.TileOfCore(c) % topo.TilesPerGroup)
	}
	return rt
}

// bankOf maps a byte address to its bank — Topology.BankOfAddr with the
// division strength-reduced to a mask for power-of-two bank counts.
func (rt *routeTables) bankOf(addr uint32) int {
	w := addr >> 2
	if rt.usesMask {
		return int(w & rt.bankMask)
	}
	return int(w % rt.bankMod)
}

// NewFabric builds the fabric. depth is the capacity of every FIFO stage;
// small depths (2–4) are realistic for SPM-class interconnects and are
// what produce hot-spot tree saturation.
func NewFabric(topo Topology, clock *engine.Clock, depth int) *Fabric {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	if depth <= 0 {
		depth = 2
	}
	f := &Fabric{Topo: topo, Clock: clock, rt: buildRouteTables(topo)}
	rt := &f.rt

	nCores, nBanks := topo.NumCores(), topo.NumBanks()
	nTiles, nGroups := topo.NumTiles(), topo.NumGroups

	newReq := func(d int) *engine.FIFO[bus.Request] {
		q := engine.NewFIFO[bus.Request](d, clock)
		f.allReqFIFOs = append(f.allReqFIFOs, q)
		return q
	}
	newResp := func(d int) *engine.FIFO[bus.Response] {
		q := engine.NewFIFO[bus.Response](d, clock)
		f.allRespFIFOs = append(f.allRespFIFOs, q)
		return q
	}

	f.CoreReq = make([]*engine.FIFO[bus.Request], nCores)
	f.CoreResp = make([]*engine.FIFO[bus.Response], nCores)
	for c := 0; c < nCores; c++ {
		f.CoreReq[c] = newReq(depth)
		f.CoreResp[c] = newResp(depth)
	}
	f.BankReq = make([]*engine.FIFO[bus.Request], nBanks)
	f.BankResp = make([]*engine.FIFO[bus.Response], nBanks)
	for b := 0; b < nBanks; b++ {
		f.BankReq[b] = newReq(depth)
		f.BankResp[b] = newResp(depth)
	}

	// Per-tile egress FIFOs, one per destination group; per-tile ingress
	// FIFO from its group router.
	tileEgressReq := make([][]*engine.FIFO[bus.Request], nTiles)
	tileEgressResp := make([][]*engine.FIFO[bus.Response], nTiles)
	tileIngressReq := make([]*engine.FIFO[bus.Request], nTiles)
	tileIngressResp := make([]*engine.FIFO[bus.Response], nTiles)
	for t := 0; t < nTiles; t++ {
		tileEgressReq[t] = make([]*engine.FIFO[bus.Request], nGroups)
		tileEgressResp[t] = make([]*engine.FIFO[bus.Response], nGroups)
		for g := 0; g < nGroups; g++ {
			tileEgressReq[t][g] = newReq(depth)
			tileEgressResp[t][g] = newResp(depth)
		}
		tileIngressReq[t] = newReq(depth)
		tileIngressResp[t] = newResp(depth)
	}

	// Inter-group links (ordered pairs, g != h) and intra-group merge
	// links (g == g).
	linkReq := make([][]*engine.FIFO[bus.Request], nGroups)
	linkResp := make([][]*engine.FIFO[bus.Response], nGroups)
	for g := 0; g < nGroups; g++ {
		linkReq[g] = make([]*engine.FIFO[bus.Request], nGroups)
		linkResp[g] = make([]*engine.FIFO[bus.Response], nGroups)
		for h := 0; h < nGroups; h++ {
			linkReq[g][h] = newReq(depth)
			linkResp[g][h] = newResp(depth)
		}
	}

	// --- Request network ---

	// Tile routers: local cores + group ingress → local banks + per-group
	// egress.
	for t := 0; t < nTiles; t++ {
		t := t
		in := make([]*engine.FIFO[bus.Request], 0, topo.CoresPerTile+1)
		for c := 0; c < topo.CoresPerTile; c++ {
			in = append(in, f.CoreReq[t*topo.CoresPerTile+c])
		}
		in = append(in, tileIngressReq[t])
		out := make([]*engine.FIFO[bus.Request], 0, topo.BanksPerTile+nGroups)
		for b := 0; b < topo.BanksPerTile; b++ {
			out = append(out, f.BankReq[t*topo.BanksPerTile+b])
		}
		out = append(out, tileEgressReq[t]...)
		tt := int32(t)
		route := func(r bus.Request) int {
			bank := rt.bankOf(r.Addr)
			if rt.tileOfBank[bank] == tt {
				return int(rt.bankPortLocal[bank])
			}
			return int(rt.bankPortRemote[bank])
		}
		f.reqRouters = append(f.reqRouters, NewRouter("tile-req", in, out, route))
	}

	// Link arbiters: merge the member tiles' per-destination egress FIFOs
	// onto the (g→h) link.
	for g := 0; g < nGroups; g++ {
		for h := 0; h < nGroups; h++ {
			in := make([]*engine.FIFO[bus.Request], 0, topo.TilesPerGroup)
			for ti := 0; ti < topo.TilesPerGroup; ti++ {
				in = append(in, tileEgressReq[g*topo.TilesPerGroup+ti][h])
			}
			out := []*engine.FIFO[bus.Request]{linkReq[g][h]}
			f.reqRouters = append(f.reqRouters,
				NewRouter("link-req", in, out, func(bus.Request) int { return 0 }))
		}
	}

	// Group distribution routers: incoming links → member tile ingress.
	for g := 0; g < nGroups; g++ {
		g := g
		in := make([]*engine.FIFO[bus.Request], 0, nGroups)
		for h := 0; h < nGroups; h++ {
			in = append(in, linkReq[h][g])
		}
		out := make([]*engine.FIFO[bus.Request], 0, topo.TilesPerGroup)
		for ti := 0; ti < topo.TilesPerGroup; ti++ {
			out = append(out, tileIngressReq[g*topo.TilesPerGroup+ti])
		}
		route := func(r bus.Request) int {
			return int(rt.bankPortGroup[rt.bankOf(r.Addr)])
		}
		f.reqRouters = append(f.reqRouters, NewRouter("group-req", in, out, route))
	}

	// --- Response network (mirror, routed by destination core) ---

	for t := 0; t < nTiles; t++ {
		t := t
		var in []*engine.FIFO[bus.Response]
		for b := 0; b < topo.BanksPerTile; b++ {
			in = append(in, f.BankResp[t*topo.BanksPerTile+b])
		}
		in = append(in, tileIngressResp[t])
		var out []*engine.FIFO[bus.Response]
		for c := 0; c < topo.CoresPerTile; c++ {
			out = append(out, f.CoreResp[t*topo.CoresPerTile+c])
		}
		out = append(out, tileEgressResp[t]...)
		tt := int32(t)
		route := func(r bus.Response) int {
			if rt.tileOfCore[r.Dst] == tt {
				return int(rt.corePortLocal[r.Dst])
			}
			return int(rt.corePortRemote[r.Dst])
		}
		f.respRouters = append(f.respRouters, NewRouter("tile-resp", in, out, route))
	}

	for g := 0; g < nGroups; g++ {
		for h := 0; h < nGroups; h++ {
			in := make([]*engine.FIFO[bus.Response], 0, topo.TilesPerGroup)
			for ti := 0; ti < topo.TilesPerGroup; ti++ {
				in = append(in, tileEgressResp[g*topo.TilesPerGroup+ti][h])
			}
			out := []*engine.FIFO[bus.Response]{linkResp[g][h]}
			f.respRouters = append(f.respRouters,
				NewRouter("link-resp", in, out, func(bus.Response) int { return 0 }))
		}
	}

	for g := 0; g < nGroups; g++ {
		g := g
		var in []*engine.FIFO[bus.Response]
		for h := 0; h < nGroups; h++ {
			in = append(in, linkResp[h][g])
		}
		var out []*engine.FIFO[bus.Response]
		for ti := 0; ti < topo.TilesPerGroup; ti++ {
			out = append(out, tileIngressResp[g*topo.TilesPerGroup+ti])
		}
		route := func(r bus.Response) int {
			return int(rt.corePortGroup[r.Dst])
		}
		f.respRouters = append(f.respRouters, NewRouter("group-resp", in, out, route))
	}

	f.linkStart, f.groupStart = nTiles, nTiles+nGroups*nGroups
	f.reqDirty, f.reqAsleep = wireWakes(f.reqRouters)
	f.respDirty, f.respAsleep = wireWakes(f.respRouters)
	return f
}

// wireWakes builds one network's dirty and asleep sets and hooks the
// wake conditions into its FIFOs: pushing into any input stage of a
// router marks it dirty, and popping any of its output stages moves it
// from asleep to dirty. Every output FIFO has exactly one producer
// router, so it carries exactly that router's pop hook; two partitions
// may pop one router's outputs in the same phase, and Remove lets
// exactly one of them claim the wake. Terminal FIFOs (BankReq,
// CoreResp) are no router's input; their consumers (banks, the
// platform's delivery loop) hang their own push hooks off them.
func wireWakes[T any](routers []*Router[T]) (dirty, asleep engine.AtomicSet) {
	dirty = engine.MakeAtomicSet(len(routers))
	asleep = engine.MakeAtomicSet(len(routers))
	for i, r := range routers {
		wake := func() { dirty.Add(i) }
		for _, q := range r.in {
			q.OnPush(wake)
		}
		wakeOnSpace := func() {
			// Load first: the common pop finds the router awake and
			// should cost no locked write.
			if asleep.Contains(i) && asleep.Remove(i) {
				dirty.Add(i)
				r.spaceWakes++
			}
		}
		for _, q := range r.out {
			q.OnPop(wakeOnSpace)
		}
	}
	return dirty, asleep
}

// Tick advances every router by one cycle — the dense reference loop,
// retained for differential testing against the activity-driven
// SnapshotShard/TickShardClass passes.
func (f *Fabric) Tick() {
	for _, r := range f.reqRouters {
		r.Tick()
	}
	for _, r := range f.respRouters {
		r.Tick()
	}
}

// SleepStats returns how many times routers of either network went to
// sleep stalled and how many times a pop woke one — host-side
// scheduling counts, like the kernel's ticked counts. Only meaningful
// between cycles.
func (f *Fabric) SleepStats() (slept, spaceWakes uint64) {
	for _, r := range f.reqRouters {
		slept, spaceWakes = slept+r.sleeps, spaceWakes+r.spaceWakes
	}
	for _, r := range f.respRouters {
		slept, spaceWakes = slept+r.sleeps, spaceWakes+r.spaceWakes
	}
	return slept, spaceWakes
}

// NumRouters returns the total router count in both networks.
func (f *Fabric) NumRouters() int {
	return len(f.reqRouters) + len(f.respRouters)
}

// Busy reports whether any router is dirty — conservatively, whether
// any message may still be moving inside the fabric. Terminal delivery
// ports (BankReq, CoreResp) are owned by their consumers and not counted
// here. A sleeping router is not counted either: its full output keeps
// the consumer downstream busy (a dirty router, a bank with queued work
// or a pending delivery), and only that consumer's pop can wake it.
// Only meaningful between cycles (no partition mid-phase).
func (f *Fabric) Busy() bool {
	return f.reqDirty.Any() || f.respDirty.Any()
}

// Flits returns the cumulative number of hop traversals in both networks,
// the unit the energy model charges for interconnect activity.
func (f *Fabric) Flits() uint64 {
	var total uint64
	for _, r := range f.reqRouters {
		total += r.Forwards
	}
	for _, r := range f.respRouters {
		total += r.Forwards
	}
	return total
}

// InFlight returns the number of messages currently queued anywhere in the
// fabric, including injection and delivery ports.
func (f *Fabric) InFlight() int {
	total := 0
	for _, q := range f.allReqFIFOs {
		total += q.Len()
	}
	for _, q := range f.allRespFIFOs {
		total += q.Len()
	}
	return total
}
