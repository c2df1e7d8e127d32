// Package reserve implements the reservation policies attached to memory
// banks:
//
//   - SingleSlot: MemPool's lightweight LRSC with one reservation per bank
//     (a new LR displaces the previous reservation — spurious SC failures
//     under contention).
//   - Table: an ATUN-style reservation table with one entry per core
//     (non-blocking LRSC).
//   - WaitQueue: the paper's LRSCwait_q — a per-bank queue of capacity q
//     holding outstanding LRwait/Mwait reservations, served in order per
//     address. q = number of cores gives LRSCwait_ideal.
//
// Colibri, the scalable distributed implementation, lives in its own
// package (internal/colibri).
package reserve

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/mem"
)

// Stats counts policy-level events, shared by all adapters in this
// package. It is the shared mem.AdapterStats vocabulary, so every
// adapter here reports through mem.StatsReporter.
type Stats = mem.AdapterStats

// SingleSlot is MemPool's baseline LRSC unit: a single reservation slot
// per bank. The slot is granted to the first LR and held until the
// holder's SC arrives (success or failure) or a write invalidates it;
// an LR from another core meanwhile reads the value but receives no
// reservation — this is the "sacrifices the non-blocking property"
// behaviour the paper describes, and it is what keeps some SCs succeeding
// under extreme contention (a displacing slot would collapse entirely).
// An LR from the holder itself re-targets the reservation.
type SingleSlot struct {
	valid bool // a reservation is armed (SC from holder will succeed)
	held  bool // the slot is occupied until the holder's SC arrives
	core  int
	addr  uint32
	Stats Stats
}

// NewSingleSlot returns an empty single-reservation adapter.
func NewSingleSlot() *SingleSlot { return &SingleSlot{} }

// AdapterStats implements mem.StatsReporter.
func (a *SingleSlot) AdapterStats() mem.AdapterStats { return a.Stats }

// Handle implements mem.Adapter.
func (a *SingleSlot) Handle(req bus.Request, s mem.Storage, out []bus.Response) []bus.Response {
	if resp, wrote, ok := mem.HandleBasic(req, s); ok {
		if wrote && a.valid && a.addr == req.Addr {
			a.valid = false
			a.Stats.Invalidations++
		}
		return append(out, resp)
	}
	if req.Op.IsWakeUp() {
		return out // no queues to wake
	}
	switch req.Op {
	case bus.LR:
		if !a.held || a.core == req.Src {
			a.held, a.valid = true, true
			a.core, a.addr = req.Src, req.Addr
			a.Stats.Grants++
			return append(out, req.Reply(s.Read(req.Addr), true))
		}
		// Slot occupied by another core: read without a reservation.
		a.Stats.Refused++
		return append(out, req.Reply(s.Read(req.Addr), true))
	case bus.SC:
		if a.held && a.core == req.Src {
			// The holder's SC frees the slot whether or not the
			// reservation survived.
			ok := a.valid && a.addr == req.Addr
			a.held, a.valid = false, false
			if ok {
				s.Write(req.Addr, req.Data)
				a.Stats.SCSuccess++
				return append(out, req.Reply(0, true))
			}
			a.Stats.SCFail++
			return append(out, req.Reply(0, false))
		}
		a.Stats.SCFail++
		return append(out, req.Reply(0, false))
	case bus.LRWait, bus.MWait:
		// Not supported by this unit: refuse (software retries via the
		// failing SCwait, same contract as a full LRSCwait queue).
		a.Stats.Refused++
		return append(out, req.Reply(s.Read(req.Addr), false))
	case bus.SCWait:
		a.Stats.SCFail++
		return append(out, req.Reply(0, false))
	}
	return append(out, req.Reply(0, false))
}

// Table is an ATUN-style reservation table: one reservation entry per core,
// making LRSC non-blocking (no displacement). The hardware cost — an entry
// per core per bank — is what the paper's Table I shows scaling
// quadratically.
type Table struct {
	addr  []uint32
	valid []bool
	Stats Stats
}

// NewTable returns a reservation table for numCores cores.
func NewTable(numCores int) *Table {
	if numCores <= 0 {
		panic(fmt.Sprintf("reserve: NewTable(%d)", numCores))
	}
	return &Table{addr: make([]uint32, numCores), valid: make([]bool, numCores)}
}

// AdapterStats implements mem.StatsReporter.
func (a *Table) AdapterStats() mem.AdapterStats { return a.Stats }

func (a *Table) invalidate(addr uint32) {
	for i := range a.valid {
		if a.valid[i] && a.addr[i] == addr {
			a.valid[i] = false
			a.Stats.Invalidations++
		}
	}
}

// Handle implements mem.Adapter.
func (a *Table) Handle(req bus.Request, s mem.Storage, out []bus.Response) []bus.Response {
	if resp, wrote, ok := mem.HandleBasic(req, s); ok {
		if wrote {
			a.invalidate(req.Addr)
		}
		return append(out, resp)
	}
	if req.Op.IsWakeUp() {
		return out // no queues to wake
	}
	switch req.Op {
	case bus.LR:
		a.addr[req.Src], a.valid[req.Src] = req.Addr, true
		a.Stats.Grants++
		return append(out, req.Reply(s.Read(req.Addr), true))
	case bus.SC:
		if a.valid[req.Src] && a.addr[req.Src] == req.Addr {
			s.Write(req.Addr, req.Data)
			a.invalidate(req.Addr) // clears own and competitors' reservations
			a.Stats.SCSuccess++
			return append(out, req.Reply(0, true))
		}
		a.Stats.SCFail++
		return append(out, req.Reply(0, false))
	case bus.LRWait, bus.MWait:
		a.Stats.Refused++
		return append(out, req.Reply(s.Read(req.Addr), false))
	case bus.SCWait:
		a.Stats.SCFail++
		return append(out, req.Reply(0, false))
	}
	return append(out, req.Reply(0, false))
}
