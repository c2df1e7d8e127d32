// Package noc models the hierarchical interconnect of a MemPool-class
// manycore: cores grouped into tiles, tiles into groups, groups connected
// all-to-all. Requests and responses travel on two disjoint networks
// (protocol deadlock freedom). Every port is a bounded, timestamped FIFO:
// one cycle per hop, credit-style backpressure, round-robin arbitration,
// and head-of-line blocking — the ingredients that turn a hot-spot into
// tree saturation, which the paper's interference experiment (Fig. 5)
// depends on.
package noc

import "fmt"

// Topology describes the core/bank/tile/group arrangement. Memory is
// word-interleaved across all banks system-wide, as in MemPool's shared L1.
type Topology struct {
	CoresPerTile  int
	BanksPerTile  int
	TilesPerGroup int
	NumGroups     int
}

// MemPool256 is the paper's evaluation platform: 256 cores and 1024 SPM
// banks in 64 tiles of 4 cores and 16 banks, 16 tiles per group, 4 groups.
func MemPool256() Topology {
	return Topology{CoresPerTile: 4, BanksPerTile: 16, TilesPerGroup: 16, NumGroups: 4}
}

// Small returns a reduced platform for unit tests: 16 cores, 64 banks,
// 2 groups of 2 tiles with 4 cores and 16 banks each.
func Small() Topology {
	return Topology{CoresPerTile: 4, BanksPerTile: 16, TilesPerGroup: 2, NumGroups: 2}
}

// Medium returns a quarter-scale MemPool for benchmarks: 64 cores and 256
// banks in 16 tiles, 4 groups.
func Medium() Topology {
	return Topology{CoresPerTile: 4, BanksPerTile: 16, TilesPerGroup: 4, NumGroups: 4}
}

// TeraPool1024 is the TeraPool scale-up evaluated by Bertuletti et al.:
// 1024 cores and 4096 SPM banks in 128 tiles of 8 cores and 32 banks
// each, 32 tiles per group, 4 groups. It stretches the same hierarchical
// fabric one level denser than MemPool, for sweeps beyond the paper's
// 256 cores.
func TeraPool1024() Topology {
	return Topology{CoresPerTile: 8, BanksPerTile: 32, TilesPerGroup: 32, NumGroups: 4}
}

// Validate checks structural sanity, and that no router of the fabric
// needs more than MaxPorts inputs or outputs.
func (t Topology) Validate() error {
	switch {
	case t.CoresPerTile <= 0:
		return fmt.Errorf("noc: CoresPerTile = %d", t.CoresPerTile)
	case t.BanksPerTile <= 0:
		return fmt.Errorf("noc: BanksPerTile = %d", t.BanksPerTile)
	case t.TilesPerGroup <= 0:
		return fmt.Errorf("noc: TilesPerGroup = %d", t.TilesPerGroup)
	case t.NumGroups <= 0:
		return fmt.Errorf("noc: NumGroups = %d", t.NumGroups)
	}
	// A tile router has one port per core or bank of its tile plus one
	// per group (its ingress, its egress ports); link arbiters and group
	// routers have one per tile of a group.
	if ports := max(t.CoresPerTile, t.BanksPerTile) + t.NumGroups; ports > MaxPorts {
		return fmt.Errorf("noc: tile routers need max(CoresPerTile, BanksPerTile)+NumGroups = %d ports, more than %d", ports, MaxPorts)
	}
	if t.TilesPerGroup > MaxPorts {
		return fmt.Errorf("noc: TilesPerGroup = %d ports per link arbiter, more than %d", t.TilesPerGroup, MaxPorts)
	}
	return nil
}

// NumTiles returns the total tile count.
func (t Topology) NumTiles() int { return t.TilesPerGroup * t.NumGroups }

// NumCores returns the total core count.
func (t Topology) NumCores() int { return t.NumTiles() * t.CoresPerTile }

// NumBanks returns the total bank count.
func (t Topology) NumBanks() int { return t.NumTiles() * t.BanksPerTile }

// GroupOfTile returns the group containing tile ti.
func (t Topology) GroupOfTile(ti int) int { return ti / t.TilesPerGroup }

// BankOfAddr maps a byte address to its bank: word-interleaved across all
// banks, exactly like MemPool's sequentially-interleaved L1 region.
func (t Topology) BankOfAddr(addr uint32) int {
	return int((addr >> 2) % uint32(t.NumBanks()))
}
