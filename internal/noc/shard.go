package noc

import "math/bits"

// Partitioned fabric ticking. The kernel ticks the routers of one class
// across all partitions concurrently, with a phase barrier between
// classes (a single partition runs the same passes back to back). The
// classes are the three stages of the MemPool hierarchy, in tick order:
//
//	ClassTile  — tile routers (cores/ingress → banks/egress)
//	ClassLink  — link arbiters (tile egress → inter-group link)
//	ClassGroup — group distribution routers (links → tile ingress)
//
// Within one class no two routers share a FIFO on either side: every
// producer/consumer relationship in the fabric crosses class boundaries
// (tile egress feeds arbiters, arbiter links feed group routers, group
// ingress feeds tile routers), and the request and response networks
// share no FIFOs at all. Ticking one class concurrently therefore
// preserves the exact per-FIFO push/pop interleaving of an
// ascending-index pass over every dirty router, which is what makes the
// kernel bit-identical for any partition assignment.
const (
	ClassTile = iota
	ClassLink
	ClassGroup
	numClasses
)

// wordMask selects the routers a partition owns inside one 64-bit chunk
// of the dirty bitsets.
type wordMask struct {
	w    int
	mask uint64
}

// PartScratch is one partition's per-cycle snapshot of its dirty
// routers, per network (as in Fabric.nets) and class, and their total
// n. Reused across cycles so steady state allocates nothing.
type PartScratch struct {
	ids [2][numClasses][]int
	n   int
}

// routerClass maps a router index (layout: tiles, then G² link
// arbiters, then G group routers — see network) to its class
// and its index within the class.
func (f *Fabric) routerClass(i int) (class, within int) {
	switch {
	case i < f.linkStart:
		return ClassTile, i
	case i < f.groupStart:
		return ClassLink, i - f.linkStart
	default:
		return ClassGroup, i - f.groupStart
	}
}

// Shard assigns every router an owning partition for SnapshotShard:
// tile routers follow their tile's partition (tilePart), link arbiters
// and group routers are distributed round-robin. Any deterministic
// assignment yields identical results (see the class comment);
// round-robin balances the load. The kernel calls it once, at
// construction; the dirty and asleep sets are untouched.
func (f *Fabric) Shard(nParts int, tilePart func(tile int) int) {
	nRouters := f.nets[0].numRouters()
	dense := make([][]uint64, nParts)
	for p := range dense {
		dense[p] = make([]uint64, (nRouters+63)/64)
	}
	for i := 0; i < nRouters; i++ {
		class, within := f.routerClass(i)
		part := within % nParts
		if class == ClassTile {
			part = tilePart(within)
		}
		dense[part][i>>6] |= 1 << uint(i&63)
	}
	f.owned = make([][]wordMask, nParts)
	for p, words := range dense {
		for w, mask := range words {
			if mask != 0 {
				f.owned[p] = append(f.owned[p], wordMask{w: w, mask: mask})
			}
		}
	}
}

// SnapshotShard collects partition part's dirty routers, per class and
// network in ascending index order, into sc. Taken once per cycle
// before the first router pass; routers dirtied later in the cycle are
// picked up next cycle, exactly like a dense pass where a router woken
// by a later-ticking upstream neighbour waits a cycle.
func (f *Fabric) SnapshotShard(part int, sc *PartScratch) {
	if sc.n > 0 {
		for n := range sc.ids {
			ids := &sc.ids[n]
			for c := range ids {
				ids[c] = ids[c][:0]
			}
		}
		sc.n = 0
	}
	for _, wm := range f.owned[part] {
		base := wm.w << 6
		for n := range f.dirty {
			m := f.dirty[n].LoadWord(wm.w) & wm.mask
			if m == 0 {
				continue // most words are clean; skip them early
			}
			ids := &sc.ids[n]
			for ; m != 0; m &= m - 1 {
				i := base + bits.TrailingZeros64(m)
				c, _ := f.routerClass(i)
				ids[c] = append(ids[c], i)
				sc.n++
			}
		}
	}
}

// TickShardClass ticks the snapshotted routers of one class, request
// network then response network (they share no FIFOs, so the relative
// order across networks is free; within a network ascending index
// matches the dense pass). A router that drained leaves the dirty set,
// and a tile router or link arbiter that ticked Stalled leaves it for
// the asleep set. No concurrent wake for its class can occur in this
// phase: every producer that could re-dirty it by a push, and every
// consumer that could wake it by a pop, runs in a different phase.
// Returns the number of routers ticked, for the kernel's accounting. An
// empty snapshot returns without a call, keeping an idle fabric free.
func (f *Fabric) TickShardClass(sc *PartScratch, class int) int {
	if sc.n == 0 {
		return 0
	}
	// Group routers keep polling: their output, tile ingress, is popped
	// by tile routers earlier in the same cycle, after the snapshot that
	// would have to include a router woken by that pop.
	canSleep := class != ClassGroup
	ticked := 0
	for n := range sc.ids {
		if ids := sc.ids[n][class]; len(ids) > 0 {
			f.nets[n].tickClass(ids, canSleep)
			ticked += len(ids)
		}
	}
	return ticked
}

// QuietCrossTile reports whether every cross-tile router — the link
// arbiters and group distribution routers of both networks — is clean.
// When it holds at a cycle boundary, the next cycle moves no message
// through either class (their input FIFOs are drained and only tile
// ticks can refill them, one barrier-equivalent later), so the
// partitioned kernel may run that cycle with a single end barrier
// instead of four. A sleeping link arbiter is clean but not drained;
// it sleeps only behind a full link, whose group router (never asleep)
// is then dirty, so the predicate still fails. Only meaningful between
// cycles, like Busy.
func (f *Fabric) QuietCrossTile() bool {
	first := f.linkStart
	for _, dirty := range f.dirty {
		for w := first >> 6; w < dirty.NumWords(); w++ {
			mask := ^uint64(0)
			if w == first>>6 {
				mask <<= uint(first & 63)
			}
			if dirty.LoadWord(w)&mask != 0 {
				return false
			}
		}
	}
	return true
}
