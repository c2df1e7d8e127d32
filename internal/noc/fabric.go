package noc

import (
	"slices"
	"sync/atomic"

	"repro/internal/bus"
	"repro/internal/engine"
)

// Fabric instantiates the two networks (request and response) for a
// topology and owns every FIFO in them. Both networks have the same
// structure, built once per network by buildNetwork: requests flow from
// core injection ports to bank delivery ports, responses from bank
// injection ports to core delivery ports.
//
// The structure follows MemPool's hierarchy: every tile has one egress
// port per destination group (so traffic to different groups never blocks
// each other at the source — each tile of MemPool likewise owns a master
// port per group), a link arbiter per ordered group pair that merges the
// member tiles' traffic onto the inter-group link, and a per-group
// distribution router that fans traffic out to the destination tiles:
//
//	source → tile router → local destination FIFO              (same tile)
//	       → tile egress[g] → link arbiter(g→h) → link
//	       → group-h router → tile ingress → tile router → destination
//
// Each hop costs one cycle (timestamped FIFOs); every port moves at
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

	// nets holds the request network, then the response network, and
	// dirty their dirty sets, which the per-cycle passes read directly.
	nets  [2]anyNetwork
	dirty [2]*engine.AtomicSet
	// linkStart and groupStart are the first router indices of the link
	// arbiter and group router classes (see routerClass).
	linkStart, groupStart int
	// owned[p] selects partition p's routers (see Shard).
	owned [][]wordMask
}

// network is one of the fabric's two networks: its routers in index
// order (tile routers, then G² link arbiters, then G group routers),
// every FIFO it owns, and its router dirty and asleep sets.
//
// The sets drive activity-driven ticking: a router joins the dirty set
// when a message is pushed into one of its input stages (FIFO push
// hooks wired at construction) and leaves once it ticks with every
// input empty, so an idle network costs nothing per cycle. A tile
// router or link arbiter also leaves when it ticks Stalled: it joins
// the asleep set instead, and the pop that frees space in one of its
// outputs (FIFO pop hooks) moves it back — wake-on-space, the fabric's
// own polling-free wait. Group routers never sleep (see
// TickShardClass). Both sets are atomic bitsets because under the
// partitioned kernel a wake may cross partitions (see shard.go).
type network[T any] struct {
	routers       []*Router[T]
	fifos         []*engine.FIFO[T]
	dirty, asleep engine.AtomicSet
}

// anyNetwork is what the Fabric's passes need of a network, whatever
// its message type.
type anyNetwork interface {
	tick()
	tickClass(ids []int, canSleep bool)
	// counts sums the routers' stalled sleeps, space wakes and forwards.
	counts() (sleeps, spaceWakes, forwards uint64)
	numRouters() int
	inFlight() int
}

// ports is one network's routing table, indexed by destination endpoint
// (bank or core). The route closures run once per newly visible router
// head — the hottest call site in a traffic-heavy simulation — and the
// topology arithmetic behind them is all integer division; the table
// costs a few bytes per endpoint and turns each decision into one or two
// indexed loads.
type ports struct {
	tile   []int32  // endpoint's tile, for the local/remote branch
	local  []uint16 // tile-router port when the endpoint is tile-local
	remote []uint16 // tile-router egress port toward the endpoint's group
	group  []uint16 // group-router port toward the endpoint's tile
}

func makePorts(topo Topology, perTile int) ports {
	n := topo.NumTiles() * perTile
	p := ports{make([]int32, n), make([]uint16, n), make([]uint16, n), make([]uint16, n)}
	for e := 0; e < n; e++ {
		tile := e / perTile
		p.tile[e] = int32(tile)
		p.local[e] = uint16(e % perTile)
		p.remote[e] = uint16(perTile + topo.GroupOfTile(tile))
		p.group[e] = uint16(tile % topo.TilesPerGroup)
	}
	return p
}

// tilePort returns the output port tile router tile uses toward endpoint e.
func (p *ports) tilePort(tile int32, e int) int {
	if p.tile[e] == tile {
		return int(p.local[e])
	}
	return int(p.remote[e])
}

// bankIndex maps a byte address to its bank — Topology.BankOfAddr with
// the division strength-reduced to a mask for power-of-two bank counts
// (every built-in topology).
type bankIndex struct {
	mask, mod uint32
	pow2      bool
}

func (b bankIndex) of(addr uint32) int {
	w := addr >> 2
	if b.pow2 {
		return int(w & b.mask)
	}
	return int(w % b.mod)
}

// NewFabric builds the fabric. depth is the capacity of every FIFO stage;
// small depths (2–4) are realistic for SPM-class interconnects and are
// what produce hot-spot tree saturation.
//
// The route closures are built here rather than in buildNetwork: built
// inside generic code, closures are miscompiled under coverage
// instrumentation (see pushHook).
func NewFabric(topo Topology, clock *engine.Clock, depth int) *Fabric {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	if depth <= 0 {
		depth = 2
	}
	nBanks := uint32(topo.NumBanks())
	bankOf := bankIndex{mask: nBanks - 1, mod: nBanks, pow2: nBanks&(nBanks-1) == 0}
	banks, cores := makePorts(topo, topo.BanksPerTile), makePorts(topo, topo.CoresPerTile)

	req, coreReq, bankReq := buildNetwork(topo, clock, depth, "req",
		topo.CoresPerTile, topo.BanksPerTile,
		func(tile int) func(bus.Request) int {
			t := int32(tile)
			return func(r bus.Request) int { return banks.tilePort(t, bankOf.of(r.Addr)) }
		},
		func(r bus.Request) int { return int(banks.group[bankOf.of(r.Addr)]) })
	resp, bankResp, coreResp := buildNetwork(topo, clock, depth, "resp",
		topo.BanksPerTile, topo.CoresPerTile,
		func(tile int) func(bus.Response) int {
			t := int32(tile)
			return func(r bus.Response) int { return cores.tilePort(t, r.Dst) }
		},
		func(r bus.Response) int { return int(cores.group[r.Dst]) })

	nTiles := topo.NumTiles()
	return &Fabric{Topo: topo, Clock: clock,
		CoreReq: coreReq, CoreResp: coreResp, BankReq: bankReq, BankResp: bankResp,
		nets:      [2]anyNetwork{req, resp},
		dirty:     [2]*engine.AtomicSet{&req.dirty, &resp.dirty},
		linkStart: nTiles, groupStart: nTiles + topo.NumGroups*topo.NumGroups}
}

// buildNetwork builds one network for topo: srcPerTile injection and
// dstPerTile delivery ports per tile (returned in endpoint order), one
// egress FIFO per tile and destination group, one ingress FIFO per tile
// and one link per ordered group pair, and the routers between them.
// tileRoute(t) routes tile router t's messages — a local destination
// port, else the egress port of the destination's group — and
// groupRoute picks a group router's destination-tile port.
func buildNetwork[T any](topo Topology, clock *engine.Clock, depth int, name string,
	srcPerTile, dstPerTile int, tileRoute func(tile int) func(T) int, groupRoute func(T) int,
) (n *network[T], src, dst []*engine.FIFO[T]) {
	nTiles, nGroups, tpg := topo.NumTiles(), topo.NumGroups, topo.TilesPerGroup
	n = &network[T]{}
	src = n.newFIFOs(nTiles*srcPerTile, depth, clock)
	dst = n.newFIFOs(nTiles*dstPerTile, depth, clock)
	egress := n.newFIFOs(nTiles*nGroups, depth, clock) // [tile*nGroups + group]
	ingress := n.newFIFOs(nTiles, depth, clock)
	links := n.newFIFOs(nGroups*nGroups, depth, clock) // [from*nGroups + to]

	// Tile routers: local sources + group ingress → local destinations
	// + per-group egress.
	for t := 0; t < nTiles; t++ {
		in := slices.Concat(src[t*srcPerTile:(t+1)*srcPerTile], ingress[t:t+1])
		out := slices.Concat(dst[t*dstPerTile:(t+1)*dstPerTile], egress[t*nGroups:(t+1)*nGroups])
		n.routers = append(n.routers, newRouter("tile-"+name, in, out, tileRoute(t)))
	}
	// Link arbiters: merge the member tiles' per-destination egress
	// FIFOs onto the (g→h) link.
	for g := 0; g < nGroups; g++ {
		for h := 0; h < nGroups; h++ {
			l := g*nGroups + h
			in := make([]*engine.FIFO[T], 0, tpg)
			for ti := 0; ti < tpg; ti++ {
				in = append(in, egress[(g*tpg+ti)*nGroups+h])
			}
			n.routers = append(n.routers, newRouter("link-"+name, in, links[l:l+1:l+1], toLink[T]))
		}
	}
	// Group distribution routers: incoming links → member tile ingress.
	for g := 0; g < nGroups; g++ {
		in := make([]*engine.FIFO[T], 0, nGroups)
		for h := 0; h < nGroups; h++ {
			in = append(in, links[h*nGroups+g])
		}
		n.routers = append(n.routers, newRouter("group-"+name, in, ingress[g*tpg:(g+1)*tpg:(g+1)*tpg], groupRoute))
	}
	n.wireWakes()
	return n, src, dst
}

// toLink routes every message of a link arbiter to its one output.
func toLink[T any](T) int { return 0 }

// newFIFOs creates count FIFOs of this network.
func (n *network[T]) newFIFOs(count, depth int, clock *engine.Clock) []*engine.FIFO[T] {
	qs := make([]*engine.FIFO[T], count)
	for i := range qs {
		qs[i] = engine.NewFIFO[T](depth, clock)
	}
	n.fifos = append(n.fifos, qs...)
	return qs
}

// wireWakes builds the network's dirty and asleep sets and hooks the
// wake conditions into its FIFOs: pushing into input i of a router sets
// its occupancy bit and marks it dirty, and popping any of its output
// stages moves it from asleep to dirty. Every output FIFO has exactly
// one producer router, so it carries exactly that router's pop hook;
// two partitions may pop one router's outputs in the same phase, and
// Remove lets exactly one of them claim the wake. Delivery FIFOs
// (BankReq, CoreResp) are no router's input; their consumers (banks,
// the platform's delivery loop) hang their own push hooks off them.
func (n *network[T]) wireWakes() {
	n.dirty = engine.MakeAtomicSet(len(n.routers))
	n.asleep = engine.MakeAtomicSet(len(n.routers))
	for id, r := range n.routers {
		for i, q := range r.in {
			q.OnPush(pushHook(&r.occ[i>>6], 1<<uint(i&63), &n.dirty, id))
		}
		wakeOnSpace := spaceHook(&n.dirty, &n.asleep, id, &r.spaceWakes)
		for _, q := range r.out {
			q.OnPop(wakeOnSpace)
		}
	}
}

// pushHook and spaceHook build router id's hooks: one push hook per
// input, which sets the input's occupancy bit and marks the router
// dirty, and one pop hook shared by its outputs. They are deliberately
// not generic: built inside the generic wireWakes, the same closures
// read a garbage router index under go1.24 when the package is compiled
// with coverage instrumentation and inlining (go test -cover and
// -coverpkg panicked with an out-of-range AtomicSet.Add; -gcflags=-l
// hid it). Built here they are correct either way.
func pushHook(word *atomic.Uint64, bit uint64, dirty *engine.AtomicSet, id int) func() {
	return func() {
		markOccupied(word, bit)
		dirty.Add(id)
	}
}

func spaceHook(dirty, asleep *engine.AtomicSet, id int, spaceWakes *uint64) func() {
	return func() {
		// Load first: the common pop finds the router awake and
		// should cost no locked write.
		if asleep.Contains(id) && asleep.Remove(id) {
			dirty.Add(id)
			*spaceWakes++
		}
	}
}

func (n *network[T]) tick() {
	for _, r := range n.routers {
		r.Tick()
	}
}

// tickClass ticks the snapshotted routers ids of one class and updates
// their dirty and asleep membership. A router woken by a push may still
// be marked asleep; its tick settles the mark either way.
func (n *network[T]) tickClass(ids []int, canSleep bool) {
	for _, i := range ids {
		r := n.routers[i]
		r.Tick()
		if canSleep && r.Stalled() {
			n.asleep.Add(i)
			n.dirty.Remove(i)
			r.sleeps++
			continue
		}
		if !r.Busy() {
			n.dirty.Remove(i)
		}
		if canSleep && n.asleep.Contains(i) {
			n.asleep.Remove(i)
		}
	}
}

func (n *network[T]) counts() (sleeps, spaceWakes, forwards uint64) {
	for _, r := range n.routers {
		sleeps, spaceWakes, forwards = sleeps+r.sleeps, spaceWakes+r.spaceWakes, forwards+r.Forwards
	}
	return sleeps, spaceWakes, forwards
}

func (n *network[T]) numRouters() int { return len(n.routers) }

func (n *network[T]) inFlight() int {
	total := 0
	for _, q := range n.fifos {
		total += q.Len()
	}
	return total
}

// Tick advances every router by one cycle — the dense reference loop,
// retained for differential testing against the activity-driven
// SnapshotShard/TickShardClass passes.
func (f *Fabric) Tick() {
	for _, n := range f.nets {
		n.tick()
	}
}

// SleepStats returns how many times routers of either network went to
// sleep stalled and how many times a pop woke one — host-side
// scheduling counts, like the kernel's ticked counts. Only meaningful
// between cycles.
func (f *Fabric) SleepStats() (slept, spaceWakes uint64) {
	for _, n := range f.nets {
		s, w, _ := n.counts()
		slept, spaceWakes = slept+s, spaceWakes+w
	}
	return slept, spaceWakes
}

// NumRouters returns the total router count in both networks.
func (f *Fabric) NumRouters() int {
	return f.nets[0].numRouters() + f.nets[1].numRouters()
}

// Busy reports whether any router is dirty — conservatively, whether
// any message may still be moving inside the fabric. Terminal delivery
// ports (BankReq, CoreResp) are owned by their consumers and not counted
// here. A sleeping router is not counted either: its full output keeps
// the consumer downstream busy (a dirty router, a bank with queued work
// or a pending delivery), and only that consumer's pop can wake it.
// Only meaningful between cycles (no partition mid-phase).
func (f *Fabric) Busy() bool {
	return f.dirty[0].Any() || f.dirty[1].Any()
}

// Flits returns the cumulative number of hop traversals in both networks,
// the unit the energy model charges for interconnect activity.
func (f *Fabric) Flits() uint64 {
	var total uint64
	for _, n := range f.nets {
		_, _, forwards := n.counts()
		total += forwards
	}
	return total
}

// InFlight returns the number of messages currently queued anywhere in the
// fabric, including injection and delivery ports.
func (f *Fabric) InFlight() int {
	total := 0
	for _, n := range f.nets {
		total += n.inFlight()
	}
	return total
}
