// Package locks is the assembly macro library for the software
// synchronization primitives the paper benchmarks against:
//
//   - test-and-set spin locks with bounded backoff, built on AMOSWAP, on
//     LR/SC, or on LRwait/SCwait ("Colibri lock");
//   - a ticket lock built on AMOADD ("Atomic Add lock");
//   - an MCS queue lock whose waiters sleep with Mwait instead of
//     spinning ("Mwait lock").
//
// Each Emit* function appends the instruction sequence to a Builder. The
// caller supplies the registers; macros document what they clobber. Label
// names are prefixed to keep multiple expansions distinct.
//
// Backoff convention: spins and retry loops use truncated exponential
// backoff. `cap` holds the maximum backoff in cycles (the paper's
// "backoff of 128 cycles"); `cur` holds the current value, doubled up to
// the cap on every failure and reseeded to cap/4+1 on success. A fixed
// backoff synchronizes the retry bursts of hundreds of cores and
// collapses throughput far below what the paper's RTL measures.
package locks

import (
	"fmt"

	"repro/internal/isa"
)

// EmitExpBackoff emits: pause(cur); cur = min(2*cur, cap).
func EmitExpBackoff(b *isa.Builder, prefix string, cur, cap isa.Reg) {
	skip := prefix + "_bo_skip"
	b.Pause(cur)
	b.Slli(cur, cur, 1)
	b.Bge(cap, cur, skip)
	b.Mv(cur, cap)
	b.Label(skip)
}

// EmitBackoffReset emits cur = cap/4 + 1 (the backoff seed).
func EmitBackoffReset(b *isa.Builder, cur, cap isa.Reg) {
	b.Srli(cur, cap, 2)
	b.Addi(cur, cur, 1)
}

// EmitTASAcquireAmo emits a test-and-set acquire using AMOSWAP:
// spin { old = amoswap(lock, 1); if old == 0 break; backoff }.
// lockAddr holds the lock's byte address; cur/cap drive the backoff;
// tmp0/tmp1 are clobbered.
func EmitTASAcquireAmo(b *isa.Builder, prefix string, lockAddr, cur, cap, tmp0, tmp1 isa.Reg) {
	retry := prefix + "_tas_retry"
	done := prefix + "_tas_done"
	b.Label(retry)
	b.Li(tmp0, 1)
	b.AmoSwap(tmp1, tmp0, lockAddr)
	b.Beqz(tmp1, done)
	EmitExpBackoff(b, prefix+"_tas", cur, cap)
	b.J(retry)
	b.Label(done)
	EmitBackoffReset(b, cur, cap)
}

// EmitRelease emits a lock release (store zero).
func EmitRelease(b *isa.Builder, lockAddr isa.Reg) {
	b.Sw(isa.Zero, lockAddr, 0)
}

// EmitTASAcquireLRSC emits a test-and-set acquire using an LR/SC pair:
// spin { v = lr(lock); if v != 0 { backoff; retry }; if sc(lock, 1)
// fails { backoff; retry } }.
func EmitTASAcquireLRSC(b *isa.Builder, prefix string, lockAddr, cur, cap, tmp0, tmp1 isa.Reg) {
	retry := prefix + "_lrsc_retry"
	busy := prefix + "_lrsc_busy"
	done := prefix + "_lrsc_done"
	b.Label(retry)
	b.Lr(tmp0, lockAddr)
	b.Bnez(tmp0, busy)
	b.Li(tmp0, 1)
	b.Sc(tmp1, tmp0, lockAddr)
	b.Beqz(tmp1, done)
	EmitExpBackoff(b, prefix+"_lrsc_f", cur, cap)
	b.J(retry)
	b.Label(busy)
	EmitExpBackoff(b, prefix+"_lrsc_b", cur, cap)
	b.J(retry)
	b.Label(done)
	EmitBackoffReset(b, cur, cap)
}

// EmitTASAcquireLRSCWait emits a test-and-set acquire using the
// LRwait/SCwait pair ("Colibri lock"). The wait pair requires every LRwait
// to be closed by an SCwait, so when the lock is observed busy the macro
// writes the unchanged value back (yielding the queue) before backing off.
func EmitTASAcquireLRSCWait(b *isa.Builder, prefix string, lockAddr, cur, cap, tmp0, tmp1 isa.Reg) {
	retry := prefix + "_lrw_retry"
	busy := prefix + "_lrw_busy"
	done := prefix + "_lrw_done"
	b.Label(retry)
	b.LrWait(tmp0, lockAddr)
	b.Bnez(tmp0, busy)
	b.Li(tmp0, 1)
	b.ScWait(tmp1, tmp0, lockAddr)
	b.Beqz(tmp1, done)
	EmitExpBackoff(b, prefix+"_lrw_f", cur, cap)
	b.J(retry)
	b.Label(busy)
	// Yield the reservation queue: write back the observed value.
	b.ScWait(tmp1, tmp0, lockAddr)
	EmitExpBackoff(b, prefix+"_lrw_b", cur, cap)
	b.J(retry)
	b.Label(done)
	EmitBackoffReset(b, cur, cap)
}

// EmitTicketAcquire emits a ticket-lock acquire built purely on AMOADD
// ("Atomic Add lock"): my = amoadd(next, 1); spin { cur = lw(serving);
// if cur == my break; backoff }. The lock occupies two words: lockAddr ->
// next-ticket, lockAddr+4 -> now-serving. ticket receives the acquired
// ticket; tmp is scratch.
func EmitTicketAcquire(b *isa.Builder, prefix string, lockAddr, cur, cap, ticket, tmp isa.Reg) {
	spin := prefix + "_ticket_spin"
	done := prefix + "_ticket_done"
	b.Li(tmp, 1)
	b.AmoAdd(ticket, tmp, lockAddr)
	b.Label(spin)
	b.Lw(tmp, lockAddr, 4)
	b.Beq(tmp, ticket, done)
	EmitExpBackoff(b, prefix+"_ticket", cur, cap)
	b.J(spin)
	b.Label(done)
	EmitBackoffReset(b, cur, cap)
}

// EmitTicketRelease advances now-serving (lockAddr+4) with an AMOADD.
// tmp0 and tmp1 are clobbered.
func EmitTicketRelease(b *isa.Builder, lockAddr, tmp0, tmp1 isa.Reg) {
	b.Addi(tmp0, lockAddr, 4)
	b.Li(tmp1, 1)
	b.AmoAdd(isa.Zero, tmp1, tmp0)
}

// TicketWords is the number of words a ticket lock occupies.
const TicketWords = 2

// MCS lock memory layout:
//
//	lock word:      tail pointer (0 = free, else byte address of a node)
//	per-core node:  2 words — [0] locked flag (1 = waiting), [1] next ptr
//
// Acquire: swap self into the tail; if there was a predecessor, link self
// into its next pointer and sleep with Mwait on the own locked flag.
// Release: if no successor is linked, clear the tail with an
// LRwait/SCwait CAS; if a successor appears (or was there), hand over by
// clearing its locked flag.
//
// This is the paper's "Mwait lock": an MCS lock where the spin on the
// local flag is replaced by the polling-free Mwait, and the release-time
// compare-and-swap runs on the generic LRSCwait RMW pair.

// MCSNodeWords is the per-core node footprint in words.
const MCSNodeWords = 2

// EmitMCSAcquire emits the MCS acquire. lockAddr holds the lock (tail)
// address, nodeAddr the caller's node address. tmp0..tmp2 are clobbered.
func EmitMCSAcquire(b *isa.Builder, prefix string, lockAddr, nodeAddr, tmp0, tmp1, tmp2 isa.Reg) {
	wait := prefix + "_mcs_wait"
	done := prefix + "_mcs_done"
	// node.locked = 1; node.next = 0.
	b.Li(tmp0, 1)
	b.Sw(tmp0, nodeAddr, 0)
	b.Sw(isa.Zero, nodeAddr, 4)
	// pred = amoswap(tail, node).
	b.AmoSwap(tmp1, nodeAddr, lockAddr)
	b.Beqz(tmp1, done) // lock was free
	// pred.next = node.
	b.Sw(nodeAddr, tmp1, 4)
	// Sleep until our locked flag leaves 1. A refused Mwait returns the
	// still-unchanged value, so looping on "== 1" covers both refusal
	// and spurious wake.
	b.Li(tmp2, 1)
	b.Label(wait)
	b.MWait(tmp0, tmp2, nodeAddr)
	b.Beq(tmp0, tmp2, wait)
	b.Label(done)
}

// WaitKind selects how a waiter watches a shared word for change: busy
// polling, polling with truncated exponential backoff, or the
// polling-free Mwait sleep. It is the software knob the pattern
// scenarios sweep — the same axis the paper sweeps in hardware.
type WaitKind int

const (
	// WaitSpin polls the word with plain loads every cycle.
	WaitSpin WaitKind = iota
	// WaitBackoffSpin polls with truncated exponential backoff between
	// loads (the package backoff convention).
	WaitBackoffSpin
	// WaitMwait sleeps with Mwait until the word changes. Policies that
	// refuse Mwait respond with the unchanged value, so the enclosing
	// retry loop degrades to polling — the contract the paper's software
	// fallback relies on.
	WaitMwait
)

// String returns the canonical parameter spelling of the wait kind.
func (w WaitKind) String() string {
	switch w {
	case WaitSpin:
		return "spin"
	case WaitBackoffSpin:
		return "backoff"
	case WaitMwait:
		return "mwait"
	}
	return fmt.Sprintf("WaitKind(%d)", int(w))
}

// ParseWaitKind parses the canonical spelling back into a WaitKind.
func ParseWaitKind(s string) (WaitKind, error) {
	switch s {
	case "spin":
		return WaitSpin, nil
	case "backoff":
		return WaitBackoffSpin, nil
	case "mwait":
		return WaitMwait, nil
	}
	return 0, fmt.Errorf("locks: unknown wait kind %q (want spin, backoff or mwait)", s)
}

// WaitKinds lists every wait kind in canonical sweep order.
func WaitKinds() []WaitKind { return []WaitKind{WaitSpin, WaitBackoffSpin, WaitMwait} }

// EmitWaitChange emits: wait until the word at [addr] differs from cmp,
// leaving the observed value in rd. The three variants share one exit
// contract (rd != cmp) so callers are wait-kind agnostic. boCur/boCap
// drive the backoff for WaitBackoffSpin (clobbered; unused otherwise).
// rd must differ from cmp and addr; cmp and addr are preserved.
func EmitWaitChange(b *isa.Builder, prefix string, w WaitKind, rd, cmp, addr, boCur, boCap isa.Reg) {
	loop := prefix + "_wc_loop"
	done := prefix + "_wc_done"
	switch w {
	case WaitSpin:
		b.Label(loop)
		b.Lw(rd, addr, 0)
		b.Beq(rd, cmp, loop)
	case WaitBackoffSpin:
		b.Label(loop)
		b.Lw(rd, addr, 0)
		b.Bne(rd, cmp, done)
		EmitExpBackoff(b, prefix+"_wc", boCur, boCap)
		b.J(loop)
		b.Label(done)
		EmitBackoffReset(b, boCur, boCap)
	case WaitMwait:
		// A refused Mwait returns the still-unchanged value, so the loop
		// covers both refusal (degrade to polling) and spurious wake.
		b.Label(loop)
		b.MWait(rd, cmp, addr)
		b.Beq(rd, cmp, loop)
	default:
		panic(fmt.Sprintf("locks: EmitWaitChange(%v)", w))
	}
}

// EmitMCSRelease emits the MCS release with an LRwait/SCwait CAS on the
// tail. tmp0..tmp2 are clobbered. The CAS is LRwait/SCwait only, so the
// lock needs a policy that serves LRwait: where LRwait is refused, the
// SCwait of a releaser that holds the tail fails, and the releaser
// waits forever for a successor that never links in.
func EmitMCSRelease(b *isa.Builder, prefix string, lockAddr, nodeAddr, tmp0, tmp1, tmp2 isa.Reg) {
	waitSucc := prefix + "_mcsr_waitsucc"
	waitLoop := prefix + "_mcsr_waitloop"
	yield := prefix + "_mcsr_yield"
	handover := prefix + "_mcsr_handover"
	done := prefix + "_mcsr_done"

	// Fast path: do we have a successor already?
	b.Lw(tmp0, nodeAddr, 4)
	b.Bnez(tmp0, handover)

	// No successor visible: try CAS(tail, node, 0) with LRwait/SCwait.
	b.LrWait(tmp0, lockAddr)
	b.Bne(tmp0, nodeAddr, yield)
	b.ScWait(tmp1, isa.Zero, lockAddr)
	b.Beqz(tmp1, done) // tail cleared: lock free
	// SCwait failed (an acquirer swapped the tail between our LRwait and
	// SCwait): a successor is about to link itself.
	b.J(waitSucc)

	// We are not the tail: yield the reservation queue (write back the
	// observed value) and wait for the successor.
	b.Label(yield)
	b.ScWait(tmp1, tmp0, lockAddr)
	b.Label(waitSucc)
	// Wait for node.next (nodeAddr+4) to become non-zero.
	b.Addi(tmp2, nodeAddr, 4)
	b.Label(waitLoop)
	b.MWait(tmp0, isa.Zero, tmp2)
	b.Beqz(tmp0, waitLoop)
	b.Label(handover)
	// Successor's locked flag = 0.
	b.Lw(tmp0, nodeAddr, 4)
	b.Sw(isa.Zero, tmp0, 0)
	b.Label(done)
}
