package kernels

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/locks"
	"repro/internal/platform"
)

// The concurrent-queue benchmark (Fig. 6). The queue is a fetch-and-add
// ring: enqueue claims a slot by atomically incrementing the tail index,
// dequeue by incrementing the head index; slots hand over values with a
// non-zero-means-full convention. The contended operation — the atomic
// increment of a shared index — runs on the generic RMW primitive under
// test (LR/SC vs LRwait/SCwait), or under a ticket lock built on AMOADD
// for the paper's "lock-based queue using atomic adds".
//
// Compared with the paper's linked Michael-Scott-style queue this keeps
// the same serialization structure (every operation is one contended RMW
// on head or tail plus a slot access) while being robust against ABA
// without node recycling. The linked queue itself is MSQueueProgram
// (msqueue.go), which `sweep -fig 6 -ms` runs for comparison.

// QueueVariant selects the index-update primitive.
type QueueVariant int

const (
	// QueueLRSC: fetch-and-add via LR/SC retry loops.
	QueueLRSC QueueVariant = iota
	// QueueLRSCWait: fetch-and-add via LRwait/SCwait.
	QueueLRSCWait
	// QueueLockTicket: a single AMOADD ticket lock protects the queue.
	QueueLockTicket
)

func (v QueueVariant) String() string {
	switch v {
	case QueueLRSC:
		return "lrsc"
	case QueueLRSCWait:
		return "lrscwait"
	case QueueLockTicket:
		return "amoadd-lock"
	}
	return fmt.Sprintf("queue(%d)", int(v))
}

// Needs returns the reservation classes the variant can make progress
// with: its own retry pair, nothing for the ticket lock.
func (v QueueVariant) Needs() platform.Classes {
	switch v {
	case QueueLRSC:
		return platform.ClassLRSC
	case QueueLRSCWait:
		return platform.ClassLRSCWait
	}
	return 0
}

// QueueLayout places the queue state.
type QueueLayout struct {
	Head, Tail uint32 // index words (adjacent words → different banks)
	Buf        uint32
	RingSize   int    // power of two
	Lock       uint32 // ticket lock (2 words)
	Results    uint32 // per-core [deqSum, deqCount]
	Prefill    int
	NCores     int
}

// NewQueueLayout allocates queue state for nCores cores with prefill
// elements; the ring is sized to make index collisions impossible
// (capacity >= 2*(prefill+nCores), rounded up to a power of two).
func NewQueueLayout(l *platform.Layout, nCores, prefill int) QueueLayout {
	ring := 1
	for ring < 2*(prefill+nCores) {
		ring <<= 1
	}
	lay := QueueLayout{RingSize: ring, Prefill: prefill, NCores: nCores}
	lay.Head = l.Words(1)
	lay.Tail = l.Words(1)
	lay.Lock = l.Words(locks.TicketWords)
	lay.Buf = l.Words(ring)
	lay.Results = l.Words(2 * nCores)
	return lay
}

// InitQueue prefills the ring and sets the indices.
func InitQueue(sys *platform.System, lay QueueLayout) {
	for i := 0; i < lay.RingSize; i++ {
		sys.WriteWord(lay.Buf+uint32(4*i), 0)
	}
	for i := 0; i < lay.Prefill; i++ {
		sys.WriteWord(lay.Buf+uint32(4*i), prefillValue(i))
	}
	sys.WriteWord(lay.Head, 0)
	sys.WriteWord(lay.Tail, uint32(lay.Prefill))
	sys.WriteWord(lay.Lock, 0)
	sys.WriteWord(lay.Lock+4, 0)
}

func prefillValue(i int) uint32 { return 0xA000_0000 | uint32(i+1) }

// enqValue is the tag core id enqueues (nonzero).
func enqValue(core int) uint32 { return uint32(core + 1) }

// QueueProgram builds the benchmark kernel: each core alternates
// enqueue(tag) and dequeue(), marking one benchmark op per queue access.
// iters <= 0 loops forever; otherwise the core performs iters
// enqueue+dequeue pairs, stores [deqSum, deqCount] into its result slot,
// and halts.
//
// Register plan:
//
//	s0 head addr  s1 tail addr  s2 buf base  s3 ring mask  s4 backoff cap
//	s5 iteration counter  s6 my tag  s7 deq checksum  s8 deq count
//	s9 backoff cur  t0..t4 scratch
func QueueProgram(v QueueVariant, lay QueueLayout, backoff int32, iters int) platform.ProgramFor {
	return func(core int) *isa.Program {
		b := isa.NewBuilder()
		b.Li(isa.S0, int32(lay.Head))
		b.Li(isa.S1, int32(lay.Tail))
		b.Li(isa.S2, int32(lay.Buf))
		b.Li(isa.S3, int32(lay.RingSize-1))
		b.Li(isa.S4, backoff)
		locks.EmitBackoffReset(b, isa.S9, isa.S4)
		b.Li(isa.S6, int32(enqValue(core)))
		b.Li(isa.S7, 0)
		b.Li(isa.S8, 0)
		if iters > 0 {
			b.Li(isa.S5, int32(iters))
		}

		b.Label("q_loop")
		switch v {
		case QueueLRSC, QueueLRSCWait:
			emitFAA(b, v, "q_enq", isa.S1) // t0 = old tail
			emitSlotAddr(b)
			// Wait until the slot is free (==0), then publish.
			b.Label("q_enq_wait")
			b.Lw(isa.T2, isa.T1, 0)
			b.Beqz(isa.T2, "q_enq_store")
			locks.EmitExpBackoff(b, "q_enq_w", isa.S9, isa.S4)
			b.J("q_enq_wait")
			b.Label("q_enq_store")
			b.Sw(isa.S6, isa.T1, 0)
			b.Mark()

			emitFAA(b, v, "q_deq", isa.S0) // t0 = old head
			emitSlotAddr(b)
			// Wait until the slot is full (!=0), then take.
			b.Label("q_deq_wait")
			b.Lw(isa.T2, isa.T1, 0)
			b.Bnez(isa.T2, "q_deq_take")
			locks.EmitExpBackoff(b, "q_deq_w", isa.S9, isa.S4)
			b.J("q_deq_wait")
			b.Label("q_deq_take")
			b.Sw(isa.Zero, isa.T1, 0)
			b.Add(isa.S7, isa.S7, isa.T2)
			b.Addi(isa.S8, isa.S8, 1)
			b.Mark()

		case QueueLockTicket:
			b.Li(isa.T4, int32(lay.Lock))
			locks.EmitTicketAcquire(b, "q_enq", isa.T4, isa.S9, isa.S4, isa.T1, isa.T2)
			b.Lw(isa.T0, isa.S1, 0) // tail index
			emitSlotAddr(b)
			b.Sw(isa.S6, isa.T1, 0)
			b.Addi(isa.T0, isa.T0, 1)
			b.Sw(isa.T0, isa.S1, 0)
			locks.EmitTicketRelease(b, isa.T4, isa.T1, isa.T2)
			b.Mark()

			b.Li(isa.T4, int32(lay.Lock))
			locks.EmitTicketAcquire(b, "q_deq", isa.T4, isa.S9, isa.S4, isa.T1, isa.T2)
			b.Lw(isa.T0, isa.S0, 0) // head index
			emitSlotAddr(b)
			b.Lw(isa.T2, isa.T1, 0)
			b.Sw(isa.Zero, isa.T1, 0)
			b.Addi(isa.T0, isa.T0, 1)
			b.Sw(isa.T0, isa.S0, 0)
			locks.EmitTicketRelease(b, isa.T4, isa.T1, isa.T3)
			b.Add(isa.S7, isa.S7, isa.T2)
			b.Addi(isa.S8, isa.S8, 1)
			b.Mark()

		default:
			panic(fmt.Sprintf("kernels: unknown queue variant %d", v))
		}

		if iters > 0 {
			b.Addi(isa.S5, isa.S5, -1)
			b.Bnez(isa.S5, "q_loop")
			// Store [deqSum, deqCount] to the result slot.
			b.Li(isa.T0, int32(lay.Results+uint32(8*core)))
			b.Sw(isa.S7, isa.T0, 0)
			b.Sw(isa.S8, isa.T0, 4)
			b.Halt()
		} else {
			b.J("q_loop")
		}
		return b.MustBuild()
	}
}

// emitFAA emits t0 = fetch-and-add(mem[idxAddr], 1) with the selected
// primitive and exponential backoff on failure (cur in s9, cap in s4).
func emitFAA(b *isa.Builder, v QueueVariant, prefix string, idxAddr isa.Reg) {
	retry := prefix + "_faa_retry"
	done := prefix + "_faa_done"
	b.Label(retry)
	if v == QueueLRSCWait {
		b.LrWait(isa.T0, idxAddr)
	} else {
		b.Lr(isa.T0, idxAddr)
	}
	b.Addi(isa.T1, isa.T0, 1)
	if v == QueueLRSCWait {
		b.ScWait(isa.T2, isa.T1, idxAddr)
	} else {
		b.Sc(isa.T2, isa.T1, idxAddr)
	}
	b.Beqz(isa.T2, done)
	locks.EmitExpBackoff(b, prefix+"_faa", isa.S9, isa.S4)
	b.J(retry)
	b.Label(done)
	locks.EmitBackoffReset(b, isa.S9, isa.S4)
}

// emitSlotAddr computes t1 = buf + (t0 & mask)*4.
func emitSlotAddr(b *isa.Builder) {
	b.And(isa.T1, isa.T0, isa.S3)
	b.Slli(isa.T1, isa.T1, 2)
	b.Add(isa.T1, isa.T1, isa.S2)
}

// CheckQueue verifies element conservation after a finite run: the values
// dequeued by the cores plus the values still in the ring must equal the
// prefill values plus everything enqueued; the final indices must differ
// by exactly the prefill count.
func CheckQueue(sys *platform.System, lay QueueLayout, iters int) error {
	head := sys.ReadWord(lay.Head)
	tail := sys.ReadWord(lay.Tail)
	if tail-head != uint32(lay.Prefill) {
		return fmt.Errorf("tail-head = %d, want %d", tail-head, lay.Prefill)
	}
	// The per-core checksum registers are 32 bits wide, so conservation
	// holds modulo 2^32.
	var wantSum uint32
	for i := 0; i < lay.Prefill; i++ {
		wantSum += prefillValue(i)
	}
	for c := 0; c < lay.NCores; c++ {
		wantSum += uint32(iters) * enqValue(c)
	}
	var gotSum uint32
	for c := 0; c < lay.NCores; c++ {
		gotSum += sys.ReadWord(lay.Results + uint32(8*c))
		if n := sys.ReadWord(lay.Results + uint32(8*c) + 4); n != uint32(iters) {
			return fmt.Errorf("core %d dequeued %d values, want %d", c, n, iters)
		}
	}
	for i := head; i != tail; i++ {
		v := sys.ReadWord(lay.Buf + 4*(i&uint32(lay.RingSize-1)))
		if v == 0 {
			return fmt.Errorf("ring slot %d empty inside live window", i)
		}
		gotSum += v
	}
	if gotSum != wantSum {
		return fmt.Errorf("value conservation broken: got %d, want %d", gotSum, wantSum)
	}
	return nil
}
