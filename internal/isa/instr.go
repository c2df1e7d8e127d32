// Package isa defines the mini RISC-V-like instruction set executed by the
// simulated cores, including the paper's custom extension (LRwait, SCwait,
// Mwait) and an assembler with labels.
//
// The ISA is a behavioural model, not a bit-exact RV32IA implementation:
// instructions are stored decoded, immediates are full 32-bit values, and
// branches use absolute instruction indices resolved by the assembler. The
// subset is exactly what the paper's benchmark kernels need, executed at
// one instruction per cycle by internal/cpu.
package isa

import "fmt"

// Reg is a register index x0..x31. x0 is hardwired to zero.
type Reg uint8

// ABI register aliases (RISC-V standard calling convention names).
const (
	Zero Reg = 0
	RA   Reg = 1
	SP   Reg = 2
	GP   Reg = 3
	TP   Reg = 4
	T0   Reg = 5
	T1   Reg = 6
	T2   Reg = 7
	S0   Reg = 8
	S1   Reg = 9
	A0   Reg = 10
	A1   Reg = 11
	A2   Reg = 12
	A3   Reg = 13
	A4   Reg = 14
	A5   Reg = 15
	A6   Reg = 16
	A7   Reg = 17
	S2   Reg = 18
	S3   Reg = 19
	S4   Reg = 20
	S5   Reg = 21
	S6   Reg = 22
	S7   Reg = 23
	S8   Reg = 24
	S9   Reg = 25
	S10  Reg = 26
	S11  Reg = 27
	T3   Reg = 28
	T4   Reg = 29
	T5   Reg = 30
	T6   Reg = 31
)

var regNames = [...]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("x%d", uint8(r))
}

// Opcode enumerates the executable operations.
type Opcode uint8

const (
	// NOP does nothing for one cycle.
	NOP Opcode = iota
	// HALT stops the core permanently.
	HALT

	// Register-register ALU operations: rd = rs1 op rs2.
	ADD
	SUB
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT
	SLTU
	MUL

	// Register-immediate ALU operations: rd = rs1 op imm.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI

	// LI loads a full 32-bit immediate: rd = imm.
	LI

	// Branches compare rs1 and rs2 and jump to the absolute instruction
	// index in Imm when the condition holds.
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	// JAL stores the return index in rd and jumps to Imm.
	JAL
	// JALR stores the return index in rd and jumps to rs1+Imm.
	JALR

	// LW loads the word at rs1+imm into rd. SW stores rs2 to rs1+imm.
	LW
	SW

	// LR/SC: standard load-reserved / store-conditional.
	// LR rd, (rs1); SC rd, rs2, (rs1) with rd=0 on success, 1 on failure.
	LRI
	SCI
	// LRWAIT/SCWAIT: the paper's polling-free pair, same register
	// conventions as LR/SC. SCWAIT's rd also reports queue-refused
	// LRWAITs (see cpu documentation).
	LRWAIT
	SCWAIT
	// MWAIT rd, rs2, (rs1): sleeps until mem[rs1] differs from rs2, then
	// loads the (new) value into rd.
	MWAIT

	// AMOs: rd = old mem[rs1]; mem[rs1] = old op rs2. One round trip.
	AMOADD
	AMOSWAP
	AMOAND
	AMOOR
	AMOXOR
	AMOMIN
	AMOMAX
	AMOMINU
	AMOMAXU

	// CSRID reads the core's hart ID into rd.
	CSRID
	// CSRCYCLE reads the current cycle count (low 32 bits) into rd.
	CSRCYCLE
	// CSRNCORES reads the total number of cores into rd.
	CSRNCORES
	// MARK increments the core's benchmark operation counter. It models
	// a performance-counter CSR write and costs one cycle.
	MARK
	// PAUSE stalls the core for rs1 cycles without issuing any memory
	// traffic. It models a timer-assisted backoff (cycle-cost-equivalent
	// to a calibrated spin loop, but without the loop's I-fetch energy).
	PAUSE
)

var opcodeNames = [...]string{
	NOP: "nop", HALT: "halt",
	ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SLL: "sll", SRL: "srl", SRA: "sra", SLT: "slt", SLTU: "sltu", MUL: "mul",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori",
	SLLI: "slli", SRLI: "srli", SRAI: "srai", SLTI: "slti", LI: "li",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLTU: "bltu", BGEU: "bgeu",
	JAL: "jal", JALR: "jalr",
	LW: "lw", SW: "sw",
	LRI: "lr.w", SCI: "sc.w", LRWAIT: "lr.wait", SCWAIT: "sc.wait", MWAIT: "mwait",
	AMOADD: "amoadd.w", AMOSWAP: "amoswap.w", AMOAND: "amoand.w",
	AMOOR: "amoor.w", AMOXOR: "amoxor.w", AMOMIN: "amomin.w",
	AMOMAX: "amomax.w", AMOMINU: "amominu.w", AMOMAXU: "amomaxu.w",
	CSRID: "csrr.id", CSRCYCLE: "csrr.cycle", CSRNCORES: "csrr.ncores",
	MARK: "mark", PAUSE: "pause",
}

func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("opcode(%d)", uint8(o))
}

// IsMem reports whether the opcode issues a memory transaction.
func (o Opcode) IsMem() bool {
	return o == LW || o == SW || o == LRI || o == SCI ||
		o == LRWAIT || o == SCWAIT || o == MWAIT ||
		(o >= AMOADD && o <= AMOMAXU)
}

// IsBranch reports whether the opcode can redirect control flow.
func (o Opcode) IsBranch() bool {
	return (o >= BEQ && o <= BGEU) || o == JAL || o == JALR
}

// Instr is one decoded instruction.
type Instr struct {
	Op  Opcode
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int32
}

func (i Instr) String() string {
	switch i.Op {
	case NOP, HALT, MARK:
		return i.Op.String()
	case LI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU, MUL:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		return fmt.Sprintf("%s %s, %s, @%d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case JAL:
		return fmt.Sprintf("%s %s, @%d", i.Op, i.Rd, i.Imm)
	case JALR:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case LW:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs1)
	case SW:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case LRI, LRWAIT:
		return fmt.Sprintf("%s %s, (%s)", i.Op, i.Rd, i.Rs1)
	case SCI, SCWAIT, MWAIT, AMOADD, AMOSWAP, AMOAND, AMOOR, AMOXOR,
		AMOMIN, AMOMAX, AMOMINU, AMOMAXU:
		return fmt.Sprintf("%s %s, %s, (%s)", i.Op, i.Rd, i.Rs2, i.Rs1)
	case CSRID, CSRCYCLE, CSRNCORES:
		return fmt.Sprintf("%s %s", i.Op, i.Rd)
	case PAUSE:
		return fmt.Sprintf("%s %s", i.Op, i.Rs1)
	default:
		return fmt.Sprintf("%s rd=%s rs1=%s rs2=%s imm=%d", i.Op, i.Rd, i.Rs1, i.Rs2, i.Imm)
	}
}

// Program is a fully assembled instruction sequence.
type Program struct {
	Instrs []Instr
	// Symbols maps label names to instruction indices (for debugging
	// and the disassembler).
	Symbols map[string]int
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Instrs) }
