package kernels

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/locks"
	"repro/internal/platform"
)

// Michael–Scott linked queue — the concurrent queue the paper benchmarks
// ("we implement an MCS [Michael–Scott] queue with LRSC and LRSCwait").
// Nodes live in shared memory; every core owns a small node pool kept as
// an in-memory stack (dequeuing frees the retired dummy into the
// dequeuer's pool, so pools stay balanced under the alternating
// enqueue/dequeue workload). The compare-and-swap at the heart of the
// algorithm is synthesized from LR/SC or from LRwait/SCwait; with LR/SC
// the reservation also gives ABA safety for the recycled nodes.

// MSLayout places the Michael–Scott queue state.
type MSLayout struct {
	Head, Tail uint32 // pointers to nodes (byte addresses, never 0)
	Nodes      uint32 // node array: 2 words each [value, next]
	NodesPer   int    // pool size per core
	Pools      uint32 // per-core stack of free node addresses
	Results    uint32 // per-core [deqSum, deqCount]
	NCores     int
}

// msNodeWords is the node footprint (value, next).
const msNodeWords = 2

// NewMSLayout allocates queue state; each core owns nodesPer nodes, plus
// one shared dummy node.
func NewMSLayout(l *platform.Layout, nCores, nodesPer int) MSLayout {
	if nodesPer < 2 {
		nodesPer = 2
	}
	lay := MSLayout{NodesPer: nodesPer, NCores: nCores}
	lay.Head = l.Words(1)
	lay.Tail = l.Words(1)
	// Node 0 is the initial dummy; cores' nodes follow.
	lay.Nodes = l.Words(msNodeWords * (1 + nCores*nodesPer))
	lay.Pools = l.Words(nCores * nodesPer)
	lay.Results = l.Words(2 * nCores)
	return lay
}

func (lay MSLayout) nodeAddr(i int) uint32 {
	return lay.Nodes + uint32(4*msNodeWords*i)
}

// InitMSQueue builds the empty queue (head = tail = dummy) and fills the
// per-core pools.
func InitMSQueue(sys *platform.System, lay MSLayout) {
	dummy := lay.nodeAddr(0)
	sys.WriteWord(dummy, 0)   // value
	sys.WriteWord(dummy+4, 0) // next
	sys.WriteWord(lay.Head, dummy)
	sys.WriteWord(lay.Tail, dummy)
	for c := 0; c < lay.NCores; c++ {
		for s := 0; s < lay.NodesPer; s++ {
			n := lay.nodeAddr(1 + c*lay.NodesPer + s)
			sys.WriteWord(n, 0)
			sys.WriteWord(n+4, 0)
			sys.WriteWord(lay.Pools+uint32(4*(c*lay.NodesPer+s)), n)
		}
	}
}

// emitCAS emits a single compare-and-swap attempt on mem[addrReg]:
// expects oldReg, stores newReg; t6 = 0 on success, 1 on failure (the
// observed value may have changed, or the SC failed spuriously).
//
// Both flavours close the reservation on the comparison-miss path by
// writing the observed value back. For LRwait/SCwait this is the pairing
// constraint of Section III (the SCwait yields the distributed queue);
// for LR/SC it honours the "every LR is eventually followed by an SC"
// software contract that a blocking single-slot reservation unit needs —
// an abandoned LR would park the slot until the next write to the
// reserved address. The write-back is ABA-safe: if anyone modified the
// word in between, the reservation is gone and the SC fails without
// writing. Clobbers t5, t6.
func emitCAS(b *isa.Builder, wait bool, prefix string, addrReg, oldReg, newReg isa.Reg) {
	miss := prefix + "_cas_miss"
	done := prefix + "_cas_done"
	if wait {
		b.LrWait(isa.T5, addrReg)
	} else {
		b.Lr(isa.T5, addrReg)
	}
	b.Bne(isa.T5, oldReg, miss)
	if wait {
		b.ScWait(isa.T6, newReg, addrReg)
	} else {
		b.Sc(isa.T6, newReg, addrReg)
	}
	b.J(done)
	b.Label(miss)
	// Yield/close the reservation: write the value back unchanged.
	if wait {
		b.ScWait(isa.T6, isa.T5, addrReg)
	} else {
		b.Sc(isa.T6, isa.T5, addrReg)
	}
	b.Li(isa.T6, 1)
	b.Label(done)
}

// MSQueueProgram builds the Michael–Scott benchmark kernel: each core
// alternates enqueue(tag) and dequeue(), one MARK per queue access.
// iters <= 0 loops forever; otherwise the core stores [deqSum, deqCount]
// into its result slot and halts.
//
// The two flavours differ structurally, and the difference matters:
//
//   - wait=false uses the classic CAS-style algorithm on LR/SC (the
//     comparison value is read before the LR).
//   - wait=true uses LL/SC-style: the comparison uses the fresh value
//     returned by LRwait itself. Emulating CAS on top of LRwait/SCwait
//     would make every waiter sleep through the whole grant queue only to
//     fail a stale comparison and re-queue — measured to collapse at high
//     core counts. The polling-free primitives want LL/SC-shaped
//     algorithms; `sweep -fig 6 -ms` runs both flavours.
//
// Register plan:
//
//	s0 &Head  s1 &Tail  s2 pool base  s3 pool count  s4 backoff cap
//	s5 iteration counter  s6 my tag  s7 deq checksum  s8 deq count
//	s9 backoff cur  s10 node in hand  t0..t6 scratch
func MSQueueProgram(wait bool, lay MSLayout, backoff int32, iters int) platform.ProgramFor {
	return func(core int) *isa.Program {
		b := isa.NewBuilder()
		b.Li(isa.S0, int32(lay.Head))
		b.Li(isa.S1, int32(lay.Tail))
		b.Li(isa.S2, int32(lay.Pools+uint32(4*core*lay.NodesPer)))
		b.Li(isa.S3, int32(lay.NodesPer))
		b.Li(isa.S4, backoff)
		locks.EmitBackoffReset(b, isa.S9, isa.S4)
		b.Li(isa.S6, int32(enqValue(core)))
		b.Li(isa.S7, 0)
		b.Li(isa.S8, 0)
		if iters > 0 {
			b.Li(isa.S5, int32(iters))
		}

		b.Label("ms_loop")
		// Pop a node from the pool into s10; node = {tag, 0}.
		b.Addi(isa.S3, isa.S3, -1)
		b.Slli(isa.T0, isa.S3, 2)
		b.Add(isa.T0, isa.T0, isa.S2)
		b.Lw(isa.S10, isa.T0, 0)
		b.Sw(isa.S6, isa.S10, 0)
		b.Sw(isa.Zero, isa.S10, 4)
		if wait {
			emitMSEnqueueWait(b)
			b.Mark()
			emitMSDequeueWait(b)
		} else {
			emitMSEnqueueLRSC(b)
			b.Mark()
			emitMSDequeueLRSC(b)
		}
		// Retired head node (in t0) goes back to our pool; checksum in t3.
		b.Slli(isa.T4, isa.S3, 2)
		b.Add(isa.T4, isa.T4, isa.S2)
		b.Sw(isa.T0, isa.T4, 0)
		b.Addi(isa.S3, isa.S3, 1)
		b.Add(isa.S7, isa.S7, isa.T3)
		b.Addi(isa.S8, isa.S8, 1)
		b.Mark()

		if iters > 0 {
			b.Addi(isa.S5, isa.S5, -1)
			b.Bnez(isa.S5, "ms_loop")
			b.Li(isa.T0, int32(lay.Results+uint32(8*core)))
			b.Sw(isa.S7, isa.T0, 0)
			b.Sw(isa.S8, isa.T0, 4)
			b.Halt()
		} else {
			b.J("ms_loop")
		}
		return b.MustBuild()
	}
}

// emitMSEnqueueLRSC: CAS-style enqueue of node s10. The tail hint is
// revalidated while the LR reservation on tail.next is held: if the hint
// node was dequeued and recycled in between, QTail no longer points at it
// (a node is only freed after leaving both Head and Tail), and should it
// recycle after the check, the pool owner's write to its next field kills
// the reservation, so the SC cannot link into a dead node.
func emitMSEnqueueLRSC(b *isa.Builder) {
	b.Label("enq_retry")
	b.Lw(isa.T0, isa.S1, 0)   // t0 = tail hint
	b.Addi(isa.T2, isa.T0, 4) // &tail.next
	b.Lr(isa.T1, isa.T2)      // t1 = tail.next under reservation
	b.Lw(isa.T5, isa.S1, 0)   // revalidate the hint
	b.Bne(isa.T5, isa.T0, "enq_moved")
	b.Bnez(isa.T1, "enq_help")
	b.Sc(isa.T6, isa.S10, isa.T2) // link our node
	b.Bnez(isa.T6, "enq_fail")
	// Swing the tail (best effort; helpers fix it if this fails).
	emitCAS(b, false, "enq_swing", isa.S1, isa.T0, isa.S10)
	b.J("enq_done")
	b.Label("enq_moved")
	b.Sc(isa.T6, isa.T1, isa.T2) // close the reservation unchanged
	b.J("enq_retry")
	b.Label("enq_help")
	b.Sc(isa.T6, isa.T1, isa.T2) // close the reservation unchanged
	emitCAS(b, false, "enq_helpcas", isa.S1, isa.T0, isa.T1)
	b.J("enq_retry")
	b.Label("enq_fail")
	locks.EmitExpBackoff(b, "enq", isa.S9, isa.S4)
	b.J("enq_retry")
	b.Label("enq_done")
	locks.EmitBackoffReset(b, isa.S9, isa.S4)
}

// emitMSDequeueLRSC: classic CAS-style dequeue. On return, t0 holds the
// retired node and t3 the dequeued value.
func emitMSDequeueLRSC(b *isa.Builder) {
	b.Label("deq_retry")
	b.Lw(isa.T0, isa.S0, 0) // t0 = head
	b.Lw(isa.T1, isa.S1, 0) // t1 = tail
	b.Lw(isa.T2, isa.T0, 4) // t2 = head.next
	b.Bne(isa.T0, isa.T1, "deq_nonempty")
	b.Beqz(isa.T2, "deq_empty")
	emitCAS(b, false, "deq_help", isa.S1, isa.T1, isa.T2)
	b.J("deq_retry")
	b.Label("deq_empty")
	locks.EmitExpBackoff(b, "deq_e", isa.S9, isa.S4)
	b.J("deq_retry")
	b.Label("deq_nonempty")
	b.Lw(isa.T3, isa.T2, 0) // value = next.value
	emitCAS(b, false, "deq_cas", isa.S0, isa.T0, isa.T2)
	b.Bnez(isa.T6, "deq_fail")
	locks.EmitBackoffReset(b, isa.S9, isa.S4)
	b.J("deq_done")
	b.Label("deq_fail")
	locks.EmitExpBackoff(b, "deq_f", isa.S9, isa.S4)
	b.J("deq_retry")
	b.Label("deq_done")
}

// emitMSEnqueueWait: LL/SC-style enqueue of node s10 with LRwait/SCwait.
// The linearizing reservation is taken on tail.next and the comparison
// uses the value the LRwait returns; the tail hint is revalidated while
// the reservation is held (see emitMSEnqueueLRSC for why that closes the
// recycled-node race).
func emitMSEnqueueWait(b *isa.Builder) {
	b.Label("enq_retry")
	b.Lw(isa.T0, isa.S1, 0)   // t0 = tail hint
	b.Addi(isa.T2, isa.T0, 4) // &tail.next
	b.LrWait(isa.T1, isa.T2)  // fresh tail.next, serialized
	b.Lw(isa.T5, isa.S1, 0)   // revalidate the hint
	b.Bne(isa.T5, isa.T0, "enq_moved")
	b.Bnez(isa.T1, "enq_stale")
	b.ScWait(isa.T6, isa.S10, isa.T2) // link our node
	b.Bnez(isa.T6, "enq_retry")
	// Swing the tail, LL/SC-style (best effort).
	b.LrWait(isa.T5, isa.S1)
	b.Bne(isa.T5, isa.T0, "enq_swing_stale")
	b.ScWait(isa.T6, isa.S10, isa.S1)
	b.J("enq_done")
	b.Label("enq_swing_stale")
	b.ScWait(isa.T6, isa.T5, isa.S1) // yield unchanged
	b.J("enq_done")
	b.Label("enq_moved")
	b.ScWait(isa.T6, isa.T1, isa.T2) // yield unchanged
	b.J("enq_retry")
	b.Label("enq_stale")
	// Genuine tail lag: yield the next-pointer queue, help swing the
	// tail to the observed successor, retry.
	b.ScWait(isa.T6, isa.T1, isa.T2)
	b.LrWait(isa.T5, isa.S1)
	b.Bne(isa.T5, isa.T0, "enq_help_stale")
	b.ScWait(isa.T6, isa.T1, isa.S1)
	b.J("enq_retry")
	b.Label("enq_help_stale")
	b.ScWait(isa.T6, isa.T5, isa.S1)
	b.J("enq_retry")
	b.Label("enq_done")
}

// emitMSDequeueWait: LL/SC-style dequeue. The linearizing reservation is
// taken on Head itself; while holding the grant the core reads the fresh
// successor, so the SCwait only fails on a truly concurrent plain write
// (which this algorithm never issues). The classic head==tail check is
// kept: advancing head past a lagging tail would let an enqueuer chase a
// recycled node. Helping the tail happens after yielding the head grant —
// a core may hold only one outstanding LRwait. On return, t0 holds the
// retired node and t3 the value.
func emitMSDequeueWait(b *isa.Builder) {
	b.Label("deq_retry")
	b.LrWait(isa.T0, isa.S0) // t0 = fresh head, we are serialized now
	b.Lw(isa.T1, isa.S1, 0)  // t1 = tail (plain load while holding grant)
	b.Lw(isa.T2, isa.T0, 4)  // t2 = head.next
	b.Beq(isa.T0, isa.T1, "deq_lagged")
	// head != tail: next is non-null, dequeue is safe.
	b.Lw(isa.T3, isa.T2, 0) // value = next.value
	b.ScWait(isa.T6, isa.T2, isa.S0)
	b.Bnez(isa.T6, "deq_retry")
	b.J("deq_done")
	b.Label("deq_lagged")
	// Empty queue or lagging tail: yield the head grant unchanged first.
	b.ScWait(isa.T6, isa.T0, isa.S0)
	b.Beqz(isa.T2, "deq_empty")
	// Help swing the tail to the observed successor, then retry. Check
	// cheaply first: usually another core has already done it.
	b.Lw(isa.T5, isa.S1, 0)
	b.Bne(isa.T5, isa.T1, "deq_retry")
	b.LrWait(isa.T5, isa.S1)
	b.Bne(isa.T5, isa.T1, "deq_help_stale")
	b.ScWait(isa.T6, isa.T2, isa.S1)
	b.J("deq_retry")
	b.Label("deq_help_stale")
	b.ScWait(isa.T6, isa.T5, isa.S1)
	b.J("deq_retry")
	b.Label("deq_empty")
	locks.EmitExpBackoff(b, "deq_e", isa.S9, isa.S4)
	b.J("deq_retry")
	b.Label("deq_done")
	locks.EmitBackoffReset(b, isa.S9, isa.S4)
}

// CheckMSQueue verifies the queue after a finite run: the list must be
// intact (terminated, tail reachable, length == 1), values must be
// conserved modulo 2^32, and every node must be accounted for exactly
// once across the pools and the list.
func CheckMSQueue(sys *platform.System, lay MSLayout, iters int) error {
	total := 1 + lay.NCores*lay.NodesPer
	inArray := func(n uint32) bool {
		off := n - lay.Nodes
		return off%uint32(4*msNodeWords) == 0 && int(off/uint32(4*msNodeWords)) < total
	}
	// Walk the list from Head.
	head := sys.ReadWord(lay.Head)
	tail := sys.ReadWord(lay.Tail)
	if head == 0 || tail == 0 {
		return fmt.Errorf("null head/tail: %#x/%#x", head, tail)
	}
	seen := map[uint32]bool{}
	var listSum uint32
	node := head
	for node != 0 {
		if !inArray(node) {
			return fmt.Errorf("list node %#x outside the node array", node)
		}
		if seen[node] {
			return fmt.Errorf("cycle in queue at node %#x", node)
		}
		seen[node] = true
		if node != head {
			listSum += sys.ReadWord(node) // dummy's value is stale
		}
		node = sys.ReadWord(node + 4)
	}
	if !seen[tail] {
		return fmt.Errorf("tail %#x not reachable from head", tail)
	}
	// The workload enqueues and dequeues in pairs, so the final queue is
	// the lone dummy node.
	if len(seen) != 1 {
		return fmt.Errorf("final queue length = %d nodes, want 1 (dummy only)", len(seen))
	}
	// Value conservation (mod 2^32): everything enqueued was dequeued.
	var wantSum, gotSum uint32
	for c := 0; c < lay.NCores; c++ {
		wantSum += uint32(iters) * enqValue(c)
		gotSum += sys.ReadWord(lay.Results + uint32(8*c))
		if n := sys.ReadWord(lay.Results + uint32(8*c) + 4); n != uint32(iters) {
			return fmt.Errorf("core %d dequeued %d, want %d", c, n, iters)
		}
	}
	gotSum += listSum
	if gotSum != wantSum {
		return fmt.Errorf("value conservation broken: got %d, want %d", gotSum, wantSum)
	}
	// Node conservation: a halted core's pool is the first s3 slots of
	// its stack, and the pools plus the list cover every node once.
	for c := 0; c < lay.NCores; c++ {
		core := sys.Cores[c]
		if !core.Halted() {
			return fmt.Errorf("core %d has not halted", c)
		}
		count := int(core.Reg(isa.S3))
		if count > lay.NodesPer {
			return fmt.Errorf("core %d holds %d pooled nodes, pool size %d", c, count, lay.NodesPer)
		}
		for s := 0; s < count; s++ {
			n := sys.ReadWord(lay.Pools + uint32(4*(c*lay.NodesPer+s)))
			if !inArray(n) {
				return fmt.Errorf("core %d pools node %#x outside the node array", c, n)
			}
			if seen[n] {
				return fmt.Errorf("node %#x pooled by core %d is also in the list or another pool", n, c)
			}
			seen[n] = true
		}
	}
	if len(seen) != total {
		return fmt.Errorf("pools and list hold %d nodes, want %d", len(seen), total)
	}
	return nil
}
