// Package mem models an SPM memory bank with a pluggable atomics adapter.
//
// A bank processes at most one request per cycle from its input FIFO and
// emits responses through a one-per-cycle output port. All semantics beyond
// plain word storage — AMOs, LR/SC reservations, the LRSCwait queues and
// Colibri — live in the Adapter, mirroring the paper's "LRSCwait adapter
// placed in front of each memory bank".
//
// The contract is one method: the bank hands each accepted request to
// Adapter.Handle with a reused buffer, the adapter appends the
// request's responses to it, and the bank drains them through its
// port. An appending adapter costs the bank no allocation per request.
package mem

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/engine"
)

// Storage is the adapter's view of the bank's word array plus its identity.
// Addresses are global byte addresses; the bank resolves interleaving.
type Storage interface {
	// Read returns the word at the (word-aligned) global byte address.
	Read(addr uint32) uint32
	// Write commits a word to the global byte address. Adapters must
	// perform all reservation invalidation / monitor checks themselves
	// before or after calling Write; the bank does not call back.
	Write(addr uint32, v uint32)
	// BankID identifies the bank (for tracing and assertions).
	BankID() int
}

// Adapter implements the memory-side semantics of every operation. Handle
// is invoked once per accepted request and appends the responses to emit
// to out, returning the extended slice: possibly none (an LRwait that must
// wait), possibly several (a store that fires an Mwait monitor). The bank
// reuses out's backing array for its next request, so Handle must keep
// neither out nor the returned slice.
type Adapter interface {
	Handle(req bus.Request, s Storage, out []bus.Response) []bus.Response
}

// AdapterStats is the policy-level event vocabulary shared by every
// reservation adapter: how many reservations were granted or refused,
// how store-conditionals fared, and how many armed reservations were
// killed by intervening writes.
type AdapterStats struct {
	// Grants counts LR/LRwait/Mwait reservations handed out.
	Grants uint64
	// Refused counts LRwait/Mwait requests rejected because no queue
	// slot was free (the core falls back to retrying).
	Refused uint64
	// SCSuccess and SCFail count store-conditional outcomes.
	SCSuccess uint64
	SCFail    uint64
	// Invalidations counts reservations killed by intervening writes.
	Invalidations uint64
}

// StatsReporter is an optional Adapter extension: adapters implementing
// it surface their policy-level counters to the platform's aggregate
// statistics (platform.System.PolicyStats) without the platform knowing
// the concrete adapter type — custom out-of-tree policies report through
// the same interface as the built-ins.
type StatsReporter interface {
	AdapterStats() AdapterStats
}

// AmoALU applies an atomic read-modify-write operation and returns the new
// value to store. It is shared by every adapter.
func AmoALU(op bus.Op, old, operand uint32) uint32 {
	switch op {
	case bus.AmoAdd:
		return old + operand
	case bus.AmoSwap:
		return operand
	case bus.AmoAnd:
		return old & operand
	case bus.AmoOr:
		return old | operand
	case bus.AmoXor:
		return old ^ operand
	case bus.AmoMin:
		if int32(operand) < int32(old) {
			return operand
		}
		return old
	case bus.AmoMax:
		if int32(operand) > int32(old) {
			return operand
		}
		return old
	case bus.AmoMinU:
		if operand < old {
			return operand
		}
		return old
	case bus.AmoMaxU:
		if operand > old {
			return operand
		}
		return old
	default:
		panic(fmt.Sprintf("mem: AmoALU called with %v", op))
	}
}

// Stats aggregates a bank's activity for the energy model.
type Stats struct {
	// Accesses counts processed requests (bank activations).
	Accesses uint64
	// Writes counts committed word writes.
	Writes uint64
	// Responses counts responses produced by the adapter (a single
	// request may produce several: a store that fires a monitor, a
	// release that grants the next waiter).
	Responses uint64
}

// Bank is one SPM bank.
type Bank struct {
	id       int
	numBanks int
	// size is the bank's capacity in words. words holds a prefix of
	// them, grown by Write and Poke to cover the highest word written:
	// most banks of a large system are never written and the rest use
	// few low words, and a word past the prefix reads as zero.
	size    int
	words   []uint32
	adapter Adapter

	// In is the request delivery FIFO (owned by the fabric).
	In *engine.FIFO[bus.Request]
	// Out is the response injection FIFO (owned by the fabric).
	Out *engine.FIFO[bus.Response]

	// pending holds responses produced but not yet pushed (the response
	// port moves one per cycle).
	pending []bus.Response
	// scratch is the reusable buffer the adapter appends its responses to.
	scratch []bus.Response

	Stats Stats
}

// NewBank creates bank id of numBanks with wordsPerBank words of local
// storage, attached to the given fabric FIFOs.
func NewBank(id, numBanks, wordsPerBank int, adapter Adapter,
	in *engine.FIFO[bus.Request], out *engine.FIFO[bus.Response]) *Bank {
	if adapter == nil {
		panic("mem: nil adapter")
	}
	return &Bank{
		id:       id,
		numBanks: numBanks,
		size:     wordsPerBank,
		adapter:  adapter,
		In:       in,
		Out:      out,
	}
}

// BankID implements Storage.
func (b *Bank) BankID() int { return b.id }

// index maps a global byte address to the local word index, asserting
// alignment and residency.
func (b *Bank) index(addr uint32) int {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: unaligned access %#x at bank %d", addr, b.id))
	}
	word := addr >> 2
	if int(word%uint32(b.numBanks)) != b.id {
		panic(fmt.Sprintf("mem: address %#x routed to wrong bank %d", addr, b.id))
	}
	idx := int(word / uint32(b.numBanks))
	if idx >= b.size {
		panic(fmt.Sprintf("mem: address %#x beyond bank %d capacity", addr, b.id))
	}
	return idx
}

// load returns the word at addr, zero while it was never written.
func (b *Bank) load(addr uint32) uint32 {
	idx := b.index(addr)
	if idx >= len(b.words) {
		return 0
	}
	return b.words[idx]
}

// minBankWords is the length of a bank's first words allocation.
const minBankWords = 16

// store sets the word at addr, first growing the bank's words to cover
// it: doubled from minBankWords until idx fits, capped at the capacity.
func (b *Bank) store(addr uint32, v uint32) {
	idx := b.index(addr)
	if idx >= len(b.words) {
		n := max(minBankWords, 2*len(b.words))
		for n <= idx {
			n *= 2
		}
		w := make([]uint32, min(n, b.size))
		copy(w, b.words)
		b.words = w
	}
	b.words[idx] = v
}

// Read implements Storage.
func (b *Bank) Read(addr uint32) uint32 { return b.load(addr) }

// Write implements Storage.
func (b *Bank) Write(addr uint32, v uint32) {
	b.store(addr, v)
	b.Stats.Writes++
}

// Poke writes a word directly, bypassing timing — used to initialize data
// sections before a run.
func (b *Bank) Poke(addr uint32, v uint32) { b.store(addr, v) }

// Peek reads a word directly, bypassing timing.
func (b *Bank) Peek(addr uint32) uint32 { return b.load(addr) }

// Tick processes one cycle: first drain one pending response, then (if no
// backlog remains) accept and handle one request. Refusing to accept while
// responses are backed up gives the response port priority and bounds the
// pending queue.
func (b *Bank) Tick() {
	if len(b.pending) > 0 {
		if b.Out.Push(b.pending[0]) {
			copy(b.pending, b.pending[1:])
			b.pending = b.pending[:len(b.pending)-1]
		}
		if len(b.pending) > 0 {
			return
		}
	}
	req, ok := b.In.Pop()
	if !ok {
		return
	}
	b.Stats.Accesses++
	b.scratch = b.adapter.Handle(req, b, b.scratch[:0])
	b.Stats.Responses += uint64(len(b.scratch))
	for _, r := range b.scratch {
		if len(b.pending) == 0 && b.Out.Push(r) {
			continue
		}
		b.pending = append(b.pending, r)
	}
}

// Idle reports whether the bank has no queued input or pending output —
// its quiescence predicate: an idle bank's Tick is a no-op, so the
// activity-driven kernel parks it until a request is pushed into In (the
// wake condition it registers via the FIFO's push hook). Waiters parked
// in an adapter's reservation queue do not keep the bank awake: they
// consume no bank cycles until a new request arrives, which is the
// paper's polling-free property applied to the simulator itself.
func (b *Bank) Idle() bool { return b.In.Len() == 0 && len(b.pending) == 0 }
