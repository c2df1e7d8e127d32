// Package kernels contains the assembly benchmark workloads of the
// paper's evaluation: the concurrent histogram (Figs. 3 and 4, Table II),
// the matrix-multiplication interference victim (Fig. 5), and the
// concurrent queue (Fig. 6).
//
// Each kernel is a program builder plus a memory layout; experiments pair
// them with a hardware policy (platform.Config) and measure throughput
// with platform.Measure.
package kernels

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/locks"
	"repro/internal/platform"
)

// HistVariant selects how the histogram updates its bins.
type HistVariant int

const (
	// HistAmoAdd: single AMOADD per update — the paper's roofline.
	HistAmoAdd HistVariant = iota
	// HistLRSC: LR/SC read-modify-write with retry + backoff.
	HistLRSC
	// HistLRSCWait: LRwait/SCwait read-modify-write (run on a WaitQueue
	// or Colibri policy).
	HistLRSCWait
	// HistLockLRSC: per-bin test-and-set spin lock built on LR/SC.
	HistLockLRSC
	// HistLockLRSCWait: per-bin test-and-set spin lock built on
	// LRwait/SCwait (the paper's "Colibri lock").
	HistLockLRSCWait
	// HistLockTicket: per-bin ticket lock built on AMOADD (the paper's
	// "Atomic Add lock").
	HistLockTicket
	// HistLockMCSMwait: per-bin MCS lock whose waiters sleep on Mwait
	// (the paper's "Mwait lock"). Its release CAS on the tail is
	// LRwait/SCwait (locks.EmitMCSRelease), so it needs a policy serving
	// LRwait: under one that refuses it, a releaser holding the tail
	// waits forever for a successor that never comes.
	HistLockMCSMwait
)

var histNames = map[HistVariant]string{
	HistAmoAdd:       "amoadd",
	HistLRSC:         "lrsc",
	HistLRSCWait:     "lrscwait",
	HistLockLRSC:     "lrsc-lock",
	HistLockLRSCWait: "lrscwait-lock",
	HistLockTicket:   "amoadd-lock",
	HistLockMCSMwait: "mwait-mcs-lock",
}

func (v HistVariant) String() string {
	if s, ok := histNames[v]; ok {
		return s
	}
	return fmt.Sprintf("hist(%d)", int(v))
}

// Needs returns the reservation classes the variant can make progress
// with: LR/SC for the LR/SC update and spin lock, LRwait/SCwait for the
// LRwait update, its spin lock and the Mwait MCS lock, nothing for the
// AMO variants.
func (v HistVariant) Needs() platform.Classes {
	switch v {
	case HistLRSC, HistLockLRSC:
		return platform.ClassLRSC
	case HistLRSCWait, HistLockLRSCWait, HistLockMCSMwait:
		return platform.ClassLRSCWait
	}
	return 0
}

// ParseHistVariant returns the variant whose String is name.
func ParseHistVariant(name string) (HistVariant, bool) {
	for v, s := range histNames {
		if s == name {
			return v, true
		}
	}
	return 0, false
}

// HistLayout places the histogram's data sections.
type HistLayout struct {
	NumBins int
	// Bins is the base of NumBins consecutive words. With word
	// interleaving, bins land in consecutive banks (so few bins
	// concentrate in one tile — the hot-spot the paper studies).
	Bins uint32
	// TASLocks: one word per bin (TAS variants).
	TASLocks uint32
	// TicketLocks: two words per bin (next / now-serving).
	TicketLocks uint32
	// MCSLocks: one tail word per bin.
	MCSLocks uint32
	// MCSNodes: two words per core.
	MCSNodes uint32
}

// NewHistLayout allocates the histogram sections from l.
func NewHistLayout(l *platform.Layout, numBins, nCores int) HistLayout {
	if numBins <= 0 {
		panic(fmt.Sprintf("kernels: numBins %d must be positive", numBins))
	}
	lay := HistLayout{NumBins: numBins}
	lay.Bins = l.Words(numBins)
	lay.TASLocks = l.Words(numBins)
	lay.TicketLocks = l.Words(2 * numBins)
	lay.MCSLocks = l.Words(numBins)
	lay.MCSNodes = l.Words(locks.MCSNodeWords * nCores)
	return lay
}

// Histogram register plan (callee-owned, no calls):
//
//	s0 bins base     s1 bin mask       s2 PRNG state   s3 loop counter
//	s4 backoff cap   s5 aux lock base  s6 MCS node     s7 backoff cur
//	t0..t4 scratch
const (
	rBins  = isa.S0
	rMask  = isa.S1
	rSeed  = isa.S2
	rCount = isa.S3
	rBoCap = isa.S4
	rLockB = isa.S5
	rNode  = isa.S6
	rBoCur = isa.S7
)

// HistogramProgram builds the histogram kernel. iters <= 0 builds an
// endless loop (for throughput windows); otherwise the core halts after
// iters updates. backoff is the maximum retry/spin backoff in cycles (the
// paper uses 128); failures back off exponentially up to it.
func HistogramProgram(v HistVariant, lay HistLayout, backoff int32, iters int) *isa.Program {
	b := isa.NewBuilder()
	b.Li(rBins, int32(lay.Bins))
	b.Li(rMask, int32(lay.NumBins-1))
	b.Li(rBoCap, backoff)
	locks.EmitBackoffReset(b, rBoCur, rBoCap)
	// Seed the per-core xorshift with a core-unique odd constant.
	b.CoreID(rSeed)
	b.Addi(rSeed, rSeed, 1)
	b.Li(isa.T0, 0x27d4eb2d) // odd multiplier
	b.Mul(rSeed, rSeed, isa.T0)
	if iters > 0 {
		b.Li(rCount, int32(iters))
	}
	switch v {
	case HistLockLRSC, HistLockLRSCWait:
		b.Li(rLockB, int32(lay.TASLocks))
	case HistLockTicket:
		b.Li(rLockB, int32(lay.TicketLocks))
	case HistLockMCSMwait:
		b.Li(rLockB, int32(lay.MCSLocks))
		b.CoreID(isa.T0)
		b.Slli(isa.T0, isa.T0, 3) // 2 words per node
		b.Li(rNode, int32(lay.MCSNodes))
		b.Add(rNode, rNode, isa.T0)
	}

	pow2 := lay.NumBins&(lay.NumBins-1) == 0
	b.Label("hist_loop")
	// xorshift32 PRNG.
	b.Slli(isa.T0, rSeed, 13)
	b.Xor(rSeed, rSeed, isa.T0)
	b.Srli(isa.T0, rSeed, 17)
	b.Xor(rSeed, rSeed, isa.T0)
	b.Slli(isa.T0, rSeed, 5)
	b.Xor(rSeed, rSeed, isa.T0)
	// Bin index in t0: and-mask for power-of-two bin counts, otherwise
	// multiply-shift ((seed>>16) * numBins) >> 16, which is uniform over
	// [0, numBins) without a divider.
	if pow2 {
		b.And(isa.T0, rSeed, rMask)
	} else {
		b.Srli(isa.T0, rSeed, 16)
		b.Li(isa.T1, int32(lay.NumBins))
		b.Mul(isa.T0, isa.T0, isa.T1)
		b.Srli(isa.T0, isa.T0, 16)
	}
	b.Slli(isa.T0, isa.T0, 2)
	b.Add(isa.T0, isa.T0, rBins)

	switch v {
	case HistAmoAdd:
		b.Li(isa.T1, 1)
		b.AmoAdd(isa.Zero, isa.T1, isa.T0)

	case HistLRSC:
		b.Label("upd_retry")
		b.Lr(isa.T1, isa.T0)
		b.Addi(isa.T1, isa.T1, 1)
		b.Sc(isa.T2, isa.T1, isa.T0)
		b.Beqz(isa.T2, "upd_done")
		locks.EmitExpBackoff(b, "upd", rBoCur, rBoCap)
		b.J("upd_retry")
		b.Label("upd_done")
		locks.EmitBackoffReset(b, rBoCur, rBoCap)

	case HistLRSCWait:
		b.Label("upd_retry")
		b.LrWait(isa.T1, isa.T0)
		b.Addi(isa.T1, isa.T1, 1)
		b.ScWait(isa.T2, isa.T1, isa.T0)
		b.Beqz(isa.T2, "upd_done")
		locks.EmitExpBackoff(b, "upd", rBoCur, rBoCap)
		b.J("upd_retry")
		b.Label("upd_done")
		locks.EmitBackoffReset(b, rBoCur, rBoCap)

	case HistLockLRSC, HistLockLRSCWait:
		// lock address in t3 (stride 1 word): same bin offset as t0.
		b.Sub(isa.T3, isa.T0, rBins)
		b.Add(isa.T3, isa.T3, rLockB)
		if v == HistLockLRSC {
			locks.EmitTASAcquireLRSC(b, "upd", isa.T3, rBoCur, rBoCap, isa.T1, isa.T2)
		} else {
			locks.EmitTASAcquireLRSCWait(b, "upd", isa.T3, rBoCur, rBoCap, isa.T1, isa.T2)
		}
		b.Lw(isa.T1, isa.T0, 0)
		b.Addi(isa.T1, isa.T1, 1)
		b.Sw(isa.T1, isa.T0, 0)
		locks.EmitRelease(b, isa.T3)

	case HistLockTicket:
		// lock address in t3 (stride 2 words): bin offset doubled.
		b.Sub(isa.T3, isa.T0, rBins)
		b.Slli(isa.T3, isa.T3, 1)
		b.Add(isa.T3, isa.T3, rLockB)
		locks.EmitTicketAcquire(b, "upd", isa.T3, rBoCur, rBoCap, isa.T1, isa.T2)
		b.Lw(isa.T1, isa.T0, 0)
		b.Addi(isa.T1, isa.T1, 1)
		b.Sw(isa.T1, isa.T0, 0)
		locks.EmitTicketRelease(b, isa.T3, isa.T1, isa.T2)

	case HistLockMCSMwait:
		b.Sub(isa.T3, isa.T0, rBins)
		b.Add(isa.T3, isa.T3, rLockB)
		locks.EmitMCSAcquire(b, "upd", isa.T3, rNode, isa.T1, isa.T2, isa.T4)
		b.Lw(isa.T1, isa.T0, 0)
		b.Addi(isa.T1, isa.T1, 1)
		b.Sw(isa.T1, isa.T0, 0)
		locks.EmitMCSRelease(b, "updr", isa.T3, rNode, isa.T1, isa.T2, isa.T4)

	default:
		panic(fmt.Sprintf("kernels: unknown histogram variant %d", v))
	}

	b.Mark()
	if iters > 0 {
		b.Addi(rCount, rCount, -1)
		b.Bnez(rCount, "hist_loop")
		b.Halt()
	} else {
		b.J("hist_loop")
	}
	return b.MustBuild()
}

// HistogramSum reads the bins and returns their total.
func HistogramSum(sys *platform.System, lay HistLayout) uint64 {
	var total uint64
	for i := 0; i < lay.NumBins; i++ {
		total += uint64(sys.ReadWord(lay.Bins + uint32(4*i)))
	}
	return total
}
