// Package cpu models the in-order, single-issue cores of a MemPool-class
// system (Snitch-like): one instruction per cycle, blocking memory
// operations, and no polling traffic while waiting for a memory response —
// a core blocked on LRwait or Mwait is asleep, which is precisely the
// property the paper's primitives exploit.
package cpu

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/engine"
	"repro/internal/isa"
)

// Port is where the core injects memory requests (its Qnode). TryIssue
// reports false on backpressure; the core retries next cycle.
type Port interface {
	TryIssue(r bus.Request) bool
}

// State is the core's execution state.
type State uint8

const (
	// Ready: the core executes one instruction this cycle.
	Ready State = iota
	// WaitIssue: a memory request is waiting for egress-port space.
	WaitIssue
	// WaitResp: a memory request is outstanding.
	WaitResp
	// Stalled: a PAUSE (timer backoff) is counting down.
	Stalled
	// Halted: the core executed HALT.
	Halted
)

// Stats aggregates a core's activity; the energy model charges each class
// of cycle differently (busy/backoff at active power, response waits at
// stall power, LRwait/Mwait waits at sleep power).
type Stats struct {
	Instrs uint64
	// Ops counts MARK instructions — completed benchmark operations.
	Ops uint64
	// BusyCycles: executing instructions.
	BusyCycles uint64
	// MemWaitCycles: waiting for a Load/Store/AMO/LR/SC response.
	MemWaitCycles uint64
	// SleepCycles: waiting for an LRwait/Mwait grant (clock-gated).
	SleepCycles uint64
	// PauseCycles: timer-assisted backoff (models a spin-loop backoff's
	// cycle cost).
	PauseCycles uint64
	// IssueStallCycles: request-port backpressure.
	IssueStallCycles uint64
	// HaltedCycles: cycles after HALT.
	HaltedCycles uint64
	// SCSuccess/SCFail count store-conditional outcomes seen by this
	// core (plain and wait variants combined).
	SCSuccess uint64
	SCFail    uint64
	// WaitRefusals counts LRwait/Mwait responses with OK=false (no free
	// reservation slot at the controller).
	WaitRefusals uint64
	// Deliveries counts memory responses delivered to this core. Both
	// cycle loops call Deliver identically, so the counter is safe to
	// expose through Activity without perturbing kernel parity.
	Deliveries uint64
}

// Core is one hart.
type Core struct {
	id     int
	nCores int
	clock  *engine.Clock
	port   Port

	prog *isa.Program
	regs [32]uint32
	pc   int

	state      State
	stallLeft  int64
	pendingReq bus.Request
	waitOp     isa.Opcode
	waitRd     isa.Reg

	// Parking (activity-driven scheduling). A parked core receives no
	// Ticks; parkedAt is the cycle of its last action, and catchUp
	// reconciles the per-cycle wait counters a dense loop would have
	// bumped in the skipped span, so Stats stay cycle-exact. A core is
	// parked either Quiescent (Park) or Ready after running ahead
	// (RunAhead), which leaves no wait counter to reconcile.
	parked   bool
	parkedAt engine.Cycle

	Stats Stats
}

// New creates core id of nCores executing prog through port.
func New(id, nCores int, clock *engine.Clock, port Port, prog *isa.Program) *Core {
	if prog == nil || prog.Len() == 0 {
		panic(fmt.Sprintf("cpu: core %d has no program", id))
	}
	return &Core{id: id, nCores: nCores, clock: clock, port: port, prog: prog}
}

// State returns the current execution state.
func (c *Core) State() State { return c.state }

// Halted reports whether the core has executed HALT.
func (c *Core) Halted() bool { return c.state == Halted }

// Sleeping reports whether the core is parked waiting for an LRwait or
// Mwait grant (clock-gated, no polling traffic).
func (c *Core) Sleeping() bool {
	return c.state == WaitResp && (c.waitOp == isa.LRWAIT || c.waitOp == isa.MWAIT)
}

// Quiescent reports whether a Tick would only bump a wait counter: the
// core is waiting for a memory response, counting down a PAUSE, or
// halted. A quiescent core generates no traffic until an external event
// (response delivery, timer expiry) and may be parked — the simulator
// mirror of the paper's clock-gated LRwait/Mwait sleep.
func (c *Core) Quiescent() bool {
	return c.state == WaitResp || c.state == Stalled || c.state == Halted
}

// Park takes the core off the tick schedule as of the current cycle
// (which must be the cycle of its last Tick, and the core must be
// Quiescent). It returns the cycle at which a timer must wake the core —
// the first cycle it would execute again after a PAUSE countdown — or -1
// when the core wakes only on response delivery (WaitResp) or never
// (Halted). A Ready core parks through RunAhead instead.
func (c *Core) Park() engine.Cycle {
	if !c.Quiescent() {
		panic(fmt.Sprintf("cpu: core %d parked while runnable (state %d)", c.id, c.state))
	}
	c.parked = true
	c.parkedAt = c.clock.Now()
	if c.state == Stalled {
		return c.parkedAt + engine.Cycle(c.stallLeft) + 1
	}
	return -1
}

// Parked reports whether the core is off the tick schedule.
func (c *Core) Parked() bool { return c.parked }

// RunAhead executes the private instructions that follow a Ready core's
// instruction of the current cycle, one per cycle from the next cycle
// on, as the dense loop would: ALU operations, branches and jumps, MARK
// and the CSR reads, CSRCYCLE reading the cycle it executes in. It stops
// before a memory operation, PAUSE, HALT or a PC outside the program,
// and before cycle limit. Private instructions touch only the core's
// registers, PC and Stats, so executing them early changes nothing
// another component can see; callers take snapshots only once the clock
// has reached limit, when every instruction run ahead is in the past.
//
// When it executed any, the core is parked until the cycle of its next
// instruction, which it returns, and the caller must wake it then with
// Unpark; otherwise it returns -1 and the core stays on the schedule.
func (c *Core) RunAhead(limit engine.Cycle) engine.Cycle {
	if c.state != Ready {
		return -1
	}
	next := c.clock.Now() + 1
	at := next
	for at < limit && c.pc >= 0 && c.pc < len(c.prog.Instrs) && private(c.prog.Instrs[c.pc].Op) {
		c.execute(at)
		at++
	}
	if at == next {
		return -1
	}
	c.parked = true
	c.parkedAt = at - 1
	return at
}

// private reports whether op reads and writes only the core's own
// registers, PC and counters: everything but memory operations, PAUSE
// and HALT.
func private(op isa.Opcode) bool {
	switch op {
	case isa.NOP, isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLL, isa.SRL,
		isa.SRA, isa.SLT, isa.SLTU, isa.MUL, isa.ADDI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SLLI, isa.SRLI, isa.SRAI, isa.SLTI, isa.LI, isa.BEQ, isa.BNE, isa.BLT,
		isa.BGE, isa.BLTU, isa.BGEU, isa.JAL, isa.JALR, isa.CSRID, isa.CSRCYCLE,
		isa.CSRNCORES, isa.MARK:
		return true
	}
	return false
}

// Unpark reconciles the skipped wait counters and resumes ticking; the
// scheduler calls it when the core's wake timer fires (a PAUSE expiry,
// or the next instruction of a core that ran ahead).
func (c *Core) Unpark() {
	c.catchUp(c.clock.Now() - 1)
	c.parked = false
}

// SyncStats reconciles the per-cycle wait counters of a parked core up
// to the last completed cycle, leaving it parked. Snapshot paths call it
// so cumulative statistics are exact at any observation point; it is a
// no-op on a core that is being ticked normally.
func (c *Core) SyncStats() { c.catchUp(c.clock.Now() - 1) }

// catchUp applies the counter increments a dense loop would have made by
// ticking the parked core at cycles parkedAt+1..through. It is
// idempotent in the sense that successive calls with increasing bounds
// account each skipped cycle exactly once. A PAUSE countdown completes
// here exactly as it would have under dense ticking.
func (c *Core) catchUp(through engine.Cycle) {
	if !c.parked || through <= c.parkedAt {
		return
	}
	delta := uint64(through - c.parkedAt)
	switch c.state {
	case Halted:
		c.Stats.HaltedCycles += delta
	case Stalled:
		c.Stats.PauseCycles += delta
		c.stallLeft -= int64(delta)
		if c.stallLeft <= 0 {
			c.state = Ready
		}
	case WaitResp:
		if c.waitOp == isa.LRWAIT || c.waitOp == isa.MWAIT {
			c.Stats.SleepCycles += delta
		} else {
			c.Stats.MemWaitCycles += delta
		}
	}
	c.parkedAt = through
}

// Reg returns register r (x0 reads as zero).
func (c *Core) Reg(r isa.Reg) uint32 {
	if r == 0 {
		return 0
	}
	return c.regs[r]
}

// SetReg writes register r (writes to x0 are ignored). Used to pass kernel
// arguments before a run.
func (c *Core) SetReg(r isa.Reg, v uint32) {
	if r != 0 {
		c.regs[r] = v
	}
}

// PC returns the current program counter (instruction index).
func (c *Core) PC() int { return c.pc }

// Tick advances the core by one cycle.
func (c *Core) Tick() {
	switch c.state {
	case Halted:
		c.Stats.HaltedCycles++
	case Stalled:
		c.Stats.PauseCycles++
		c.stallLeft--
		if c.stallLeft <= 0 {
			c.state = Ready
		}
	case WaitIssue:
		if c.port.TryIssue(c.pendingReq) {
			c.state = WaitResp
		} else {
			c.Stats.IssueStallCycles++
		}
	case WaitResp:
		if c.waitOp == isa.LRWAIT || c.waitOp == isa.MWAIT {
			c.Stats.SleepCycles++
		} else {
			c.Stats.MemWaitCycles++
		}
	case Ready:
		c.execute(c.clock.Now())
	}
}

// amoOp maps AMO opcodes to bus operations.
func amoOp(op isa.Opcode) bus.Op {
	switch op {
	case isa.AMOADD:
		return bus.AmoAdd
	case isa.AMOSWAP:
		return bus.AmoSwap
	case isa.AMOAND:
		return bus.AmoAnd
	case isa.AMOOR:
		return bus.AmoOr
	case isa.AMOXOR:
		return bus.AmoXor
	case isa.AMOMIN:
		return bus.AmoMin
	case isa.AMOMAX:
		return bus.AmoMax
	case isa.AMOMINU:
		return bus.AmoMinU
	case isa.AMOMAXU:
		return bus.AmoMaxU
	}
	panic(fmt.Sprintf("cpu: not an AMO: %v", op))
}

// execute runs the instruction at the PC as the instruction of cycle now.
func (c *Core) execute(now engine.Cycle) {
	if c.pc < 0 || c.pc >= c.prog.Len() {
		panic(fmt.Sprintf("cpu: core %d pc %d out of range (program length %d)",
			c.id, c.pc, c.prog.Len()))
	}
	ins := c.prog.Instrs[c.pc]
	c.Stats.Instrs++
	c.Stats.BusyCycles++
	rs1, rs2 := c.Reg(ins.Rs1), c.Reg(ins.Rs2)
	imm := uint32(ins.Imm)

	setRd := func(v uint32) { c.SetReg(ins.Rd, v) }
	next := c.pc + 1

	switch ins.Op {
	case isa.NOP:
	case isa.HALT:
		c.state = Halted
		return
	case isa.ADD:
		setRd(rs1 + rs2)
	case isa.SUB:
		setRd(rs1 - rs2)
	case isa.AND:
		setRd(rs1 & rs2)
	case isa.OR:
		setRd(rs1 | rs2)
	case isa.XOR:
		setRd(rs1 ^ rs2)
	case isa.SLL:
		setRd(rs1 << (rs2 & 31))
	case isa.SRL:
		setRd(rs1 >> (rs2 & 31))
	case isa.SRA:
		setRd(uint32(int32(rs1) >> (rs2 & 31)))
	case isa.SLT:
		setRd(b2u(int32(rs1) < int32(rs2)))
	case isa.SLTU:
		setRd(b2u(rs1 < rs2))
	case isa.MUL:
		setRd(rs1 * rs2)
	case isa.ADDI:
		setRd(rs1 + imm)
	case isa.ANDI:
		setRd(rs1 & imm)
	case isa.ORI:
		setRd(rs1 | imm)
	case isa.XORI:
		setRd(rs1 ^ imm)
	case isa.SLLI:
		setRd(rs1 << (imm & 31))
	case isa.SRLI:
		setRd(rs1 >> (imm & 31))
	case isa.SRAI:
		setRd(uint32(int32(rs1) >> (imm & 31)))
	case isa.SLTI:
		setRd(b2u(int32(rs1) < ins.Imm))
	case isa.LI:
		setRd(imm)
	case isa.BEQ:
		if rs1 == rs2 {
			next = int(ins.Imm)
		}
	case isa.BNE:
		if rs1 != rs2 {
			next = int(ins.Imm)
		}
	case isa.BLT:
		if int32(rs1) < int32(rs2) {
			next = int(ins.Imm)
		}
	case isa.BGE:
		if int32(rs1) >= int32(rs2) {
			next = int(ins.Imm)
		}
	case isa.BLTU:
		if rs1 < rs2 {
			next = int(ins.Imm)
		}
	case isa.BGEU:
		if rs1 >= rs2 {
			next = int(ins.Imm)
		}
	case isa.JAL:
		setRd(uint32(c.pc + 1))
		next = int(ins.Imm)
	case isa.JALR:
		setRd(uint32(c.pc + 1))
		next = int(rs1 + imm)
	case isa.CSRID:
		setRd(uint32(c.id))
	case isa.CSRCYCLE:
		setRd(uint32(now))
	case isa.CSRNCORES:
		setRd(uint32(c.nCores))
	case isa.MARK:
		c.Stats.Ops++
	case isa.PAUSE:
		if rs1 > 0 {
			c.state = Stalled
			c.stallLeft = int64(rs1)
		}
	case isa.LW:
		c.issue(bus.Request{Op: bus.Load, Addr: rs1 + imm, Src: c.id}, ins)
		return
	case isa.SW:
		c.issue(bus.Request{Op: bus.Store, Addr: rs1 + imm, Data: rs2, Src: c.id}, ins)
		return
	case isa.LRI:
		c.issue(bus.Request{Op: bus.LR, Addr: rs1, Src: c.id}, ins)
		return
	case isa.SCI:
		c.issue(bus.Request{Op: bus.SC, Addr: rs1, Data: rs2, Src: c.id}, ins)
		return
	case isa.LRWAIT:
		c.issue(bus.Request{Op: bus.LRWait, Addr: rs1, Src: c.id}, ins)
		return
	case isa.SCWAIT:
		c.issue(bus.Request{Op: bus.SCWait, Addr: rs1, Data: rs2, Src: c.id}, ins)
		return
	case isa.MWAIT:
		c.issue(bus.Request{Op: bus.MWait, Addr: rs1, Data: rs2, Src: c.id}, ins)
		return
	case isa.AMOADD, isa.AMOSWAP, isa.AMOAND, isa.AMOOR, isa.AMOXOR,
		isa.AMOMIN, isa.AMOMAX, isa.AMOMINU, isa.AMOMAXU:
		c.issue(bus.Request{Op: amoOp(ins.Op), Addr: rs1, Data: rs2, Src: c.id}, ins)
		return
	default:
		panic(fmt.Sprintf("cpu: core %d: unimplemented opcode %v", c.id, ins.Op))
	}
	c.pc = next
}

// issue starts a memory transaction: the PC advances past the instruction
// and the core blocks until the response arrives.
func (c *Core) issue(req bus.Request, ins isa.Instr) {
	c.pc++
	c.waitOp = ins.Op
	c.waitRd = ins.Rd
	if c.port.TryIssue(req) {
		c.state = WaitResp
		return
	}
	c.pendingReq = req
	c.state = WaitIssue
	c.Stats.IssueStallCycles++
}

// Deliver completes the outstanding memory transaction. A parked core is
// unparked: the delivery cycle itself still counts as a wait cycle (the
// dense loop ticks the waiting core before responses are delivered), and
// the core executes again next cycle.
func (c *Core) Deliver(resp bus.Response) {
	if c.parked {
		c.catchUp(c.clock.Now())
		c.parked = false
	}
	if c.state != WaitResp && c.state != WaitIssue {
		panic(fmt.Sprintf("cpu: core %d: response in state %d", c.id, c.state))
	}
	c.Stats.Deliveries++
	switch c.waitOp {
	case isa.SW:
		// Store ack carries no data.
	case isa.SCI, isa.SCWAIT:
		if resp.OK {
			c.SetReg(c.waitRd, 0)
			c.Stats.SCSuccess++
		} else {
			c.SetReg(c.waitRd, 1)
			c.Stats.SCFail++
		}
	case isa.LRWAIT, isa.MWAIT:
		if !resp.OK {
			c.Stats.WaitRefusals++
		}
		c.SetReg(c.waitRd, resp.Data)
	default:
		c.SetReg(c.waitRd, resp.Data)
	}
	c.state = Ready
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
