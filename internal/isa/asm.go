package isa

import (
	"fmt"
	"sort"
)

// Builder assembles a Program. Emit instructions with the mnemonic
// methods, place labels with Label, and call Build to resolve branch
// targets. Builder methods panic on malformed input (duplicate or
// unresolved labels) because programs are constructed by test and
// benchmark code, not end users; Build returns the error form.
type Builder struct {
	instrs []Instr
	labels map[string]int
	// fixups records instruction indices whose Imm must be patched with
	// the address of the named label.
	fixups []fixup
}

type fixup struct {
	instr int
	label string
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]int)}
}

// Label binds name to the next emitted instruction. It panics on
// duplicates.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("isa: duplicate label %q", name))
	}
	b.labels[name] = len(b.instrs)
	return b
}

func (b *Builder) emit(i Instr) *Builder {
	b.instrs = append(b.instrs, i)
	return b
}

func (b *Builder) emitBranch(op Opcode, rd, rs1, rs2 Reg, label string) *Builder {
	b.fixups = append(b.fixups, fixup{instr: len(b.instrs), label: label})
	return b.emit(Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Build resolves all label references and returns the program.
func (b *Builder) Build() (*Program, error) {
	instrs := make([]Instr, len(b.instrs))
	copy(instrs, b.instrs)
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q", f.label)
		}
		instrs[f.instr].Imm = int32(target)
	}
	syms := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		syms[k] = v
	}
	return &Program{Instrs: instrs, Symbols: syms}, nil
}

// MustBuild is Build that panics on error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// --- ALU ---

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: ADD, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sub emits rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: SUB, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// And emits rd = rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: AND, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Or emits rd = rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: OR, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Xor emits rd = rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: XOR, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sll emits rd = rs1 << (rs2 & 31).
func (b *Builder) Sll(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: SLL, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Srl emits rd = rs1 >> (rs2 & 31), logical.
func (b *Builder) Srl(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: SRL, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sra emits rd = rs1 >> (rs2 & 31), arithmetic.
func (b *Builder) Sra(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: SRA, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Slt emits rd = (rs1 < rs2) signed.
func (b *Builder) Slt(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: SLT, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sltu emits rd = (rs1 < rs2) unsigned.
func (b *Builder) Sltu(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: SLTU, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Mul emits rd = rs1 * rs2 (low 32 bits).
func (b *Builder) Mul(rd, rs1, rs2 Reg) *Builder {
	return b.emit(Instr{Op: MUL, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Addi emits rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 Reg, imm int32) *Builder {
	return b.emit(Instr{Op: ADDI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Andi emits rd = rs1 & imm.
func (b *Builder) Andi(rd, rs1 Reg, imm int32) *Builder {
	return b.emit(Instr{Op: ANDI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Ori emits rd = rs1 | imm.
func (b *Builder) Ori(rd, rs1 Reg, imm int32) *Builder {
	return b.emit(Instr{Op: ORI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Xori emits rd = rs1 ^ imm.
func (b *Builder) Xori(rd, rs1 Reg, imm int32) *Builder {
	return b.emit(Instr{Op: XORI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Slli emits rd = rs1 << imm.
func (b *Builder) Slli(rd, rs1 Reg, imm int32) *Builder {
	return b.emit(Instr{Op: SLLI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Srli emits rd = rs1 >> imm, logical.
func (b *Builder) Srli(rd, rs1 Reg, imm int32) *Builder {
	return b.emit(Instr{Op: SRLI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Srai emits rd = rs1 >> imm, arithmetic.
func (b *Builder) Srai(rd, rs1 Reg, imm int32) *Builder {
	return b.emit(Instr{Op: SRAI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Slti emits rd = (rs1 < imm) signed.
func (b *Builder) Slti(rd, rs1 Reg, imm int32) *Builder {
	return b.emit(Instr{Op: SLTI, Rd: rd, Rs1: rs1, Imm: imm})
}

// Li emits rd = imm (full 32-bit immediate).
func (b *Builder) Li(rd Reg, imm int32) *Builder {
	return b.emit(Instr{Op: LI, Rd: rd, Imm: imm})
}

// Mv emits rd = rs (pseudo-instruction for addi rd, rs, 0).
func (b *Builder) Mv(rd, rs Reg) *Builder { return b.Addi(rd, rs, 0) }

// Nop emits a one-cycle no-op.
func (b *Builder) Nop() *Builder { return b.emit(Instr{Op: NOP}) }

// Halt stops the core.
func (b *Builder) Halt() *Builder { return b.emit(Instr{Op: HALT}) }

// --- Control flow ---

// Beq branches to label when rs1 == rs2.
func (b *Builder) Beq(rs1, rs2 Reg, label string) *Builder {
	return b.emitBranch(BEQ, 0, rs1, rs2, label)
}

// Bne branches to label when rs1 != rs2.
func (b *Builder) Bne(rs1, rs2 Reg, label string) *Builder {
	return b.emitBranch(BNE, 0, rs1, rs2, label)
}

// Blt branches to label when rs1 < rs2 (signed).
func (b *Builder) Blt(rs1, rs2 Reg, label string) *Builder {
	return b.emitBranch(BLT, 0, rs1, rs2, label)
}

// Bge branches to label when rs1 >= rs2 (signed).
func (b *Builder) Bge(rs1, rs2 Reg, label string) *Builder {
	return b.emitBranch(BGE, 0, rs1, rs2, label)
}

// Bltu branches to label when rs1 < rs2 (unsigned).
func (b *Builder) Bltu(rs1, rs2 Reg, label string) *Builder {
	return b.emitBranch(BLTU, 0, rs1, rs2, label)
}

// Bgeu branches to label when rs1 >= rs2 (unsigned).
func (b *Builder) Bgeu(rs1, rs2 Reg, label string) *Builder {
	return b.emitBranch(BGEU, 0, rs1, rs2, label)
}

// Beqz branches to label when rs1 == 0.
func (b *Builder) Beqz(rs1 Reg, label string) *Builder {
	return b.Beq(rs1, Zero, label)
}

// Bnez branches to label when rs1 != 0.
func (b *Builder) Bnez(rs1 Reg, label string) *Builder {
	return b.Bne(rs1, Zero, label)
}

// J jumps unconditionally to label.
func (b *Builder) J(label string) *Builder {
	return b.emitBranch(JAL, Zero, 0, 0, label)
}

// Jal jumps to label storing the return index in rd.
func (b *Builder) Jal(rd Reg, label string) *Builder {
	return b.emitBranch(JAL, rd, 0, 0, label)
}

// Jalr jumps to rs1+imm storing the return index in rd.
func (b *Builder) Jalr(rd, rs1 Reg, imm int32) *Builder {
	return b.emit(Instr{Op: JALR, Rd: rd, Rs1: rs1, Imm: imm})
}

// Ret returns through ra (jalr zero, ra, 0).
func (b *Builder) Ret() *Builder { return b.Jalr(Zero, RA, 0) }

// --- Memory ---

// Lw emits rd = mem[rs1+imm].
func (b *Builder) Lw(rd, rs1 Reg, imm int32) *Builder {
	return b.emit(Instr{Op: LW, Rd: rd, Rs1: rs1, Imm: imm})
}

// Sw emits mem[rs1+imm] = rs2.
func (b *Builder) Sw(rs2, rs1 Reg, imm int32) *Builder {
	return b.emit(Instr{Op: SW, Rs1: rs1, Rs2: rs2, Imm: imm})
}

// Lr emits a load-reserved: rd = mem[rs1], placing a reservation.
func (b *Builder) Lr(rd, rs1 Reg) *Builder {
	return b.emit(Instr{Op: LRI, Rd: rd, Rs1: rs1})
}

// Sc emits a store-conditional: mem[rs1] = rs2 if the reservation holds;
// rd = 0 on success, 1 on failure.
func (b *Builder) Sc(rd, rs2, rs1 Reg) *Builder {
	return b.emit(Instr{Op: SCI, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// LrWait emits the paper's LRwait: like Lr, but the response is withheld
// until this core is at the head of the address's reservation queue. rd
// receives the memory value, or all-ones if the controller refused the
// reservation (no free queue slot); see cpu docs.
func (b *Builder) LrWait(rd, rs1 Reg) *Builder {
	return b.emit(Instr{Op: LRWAIT, Rd: rd, Rs1: rs1})
}

// ScWait emits the paper's SCwait: mem[rs1] = rs2 if the reservation
// holds; rd = 0 on success, 1 on failure.
func (b *Builder) ScWait(rd, rs2, rs1 Reg) *Builder {
	return b.emit(Instr{Op: SCWAIT, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// MWait emits the paper's Mwait: sleep until mem[rs1] != rs2 (the expected
// value), then rd = mem[rs1]. If the value already differs when the monitor
// is served, the core is notified immediately.
func (b *Builder) MWait(rd, rs2, rs1 Reg) *Builder {
	return b.emit(Instr{Op: MWAIT, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AmoAdd emits rd = mem[rs1]; mem[rs1] += rs2.
func (b *Builder) AmoAdd(rd, rs2, rs1 Reg) *Builder {
	return b.emit(Instr{Op: AMOADD, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AmoSwap emits rd = mem[rs1]; mem[rs1] = rs2.
func (b *Builder) AmoSwap(rd, rs2, rs1 Reg) *Builder {
	return b.emit(Instr{Op: AMOSWAP, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AmoAnd emits rd = mem[rs1]; mem[rs1] &= rs2.
func (b *Builder) AmoAnd(rd, rs2, rs1 Reg) *Builder {
	return b.emit(Instr{Op: AMOAND, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AmoOr emits rd = mem[rs1]; mem[rs1] |= rs2.
func (b *Builder) AmoOr(rd, rs2, rs1 Reg) *Builder {
	return b.emit(Instr{Op: AMOOR, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AmoXor emits rd = mem[rs1]; mem[rs1] ^= rs2.
func (b *Builder) AmoXor(rd, rs2, rs1 Reg) *Builder {
	return b.emit(Instr{Op: AMOXOR, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AmoMin emits rd = mem[rs1]; mem[rs1] = min(old, rs2) signed.
func (b *Builder) AmoMin(rd, rs2, rs1 Reg) *Builder {
	return b.emit(Instr{Op: AMOMIN, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AmoMax emits rd = mem[rs1]; mem[rs1] = max(old, rs2) signed.
func (b *Builder) AmoMax(rd, rs2, rs1 Reg) *Builder {
	return b.emit(Instr{Op: AMOMAX, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AmoMinU emits rd = mem[rs1]; mem[rs1] = min(old, rs2) unsigned.
func (b *Builder) AmoMinU(rd, rs2, rs1 Reg) *Builder {
	return b.emit(Instr{Op: AMOMINU, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AmoMaxU emits rd = mem[rs1]; mem[rs1] = max(old, rs2) unsigned.
func (b *Builder) AmoMaxU(rd, rs2, rs1 Reg) *Builder {
	return b.emit(Instr{Op: AMOMAXU, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// --- CSRs and miscellaneous ---

// CoreID reads the hart ID into rd.
func (b *Builder) CoreID(rd Reg) *Builder {
	return b.emit(Instr{Op: CSRID, Rd: rd})
}

// Cycle reads the low 32 bits of the cycle counter into rd.
func (b *Builder) Cycle(rd Reg) *Builder {
	return b.emit(Instr{Op: CSRCYCLE, Rd: rd})
}

// NCores reads the total core count into rd.
func (b *Builder) NCores(rd Reg) *Builder {
	return b.emit(Instr{Op: CSRNCORES, Rd: rd})
}

// Mark increments the core's benchmark operation counter.
func (b *Builder) Mark() *Builder { return b.emit(Instr{Op: MARK}) }

// Pause stalls the core for rs1 cycles without memory traffic.
func (b *Builder) Pause(rs1 Reg) *Builder {
	return b.emit(Instr{Op: PAUSE, Rs1: rs1})
}

// Disassemble renders p as text, one instruction per line, with label
// annotations.
func Disassemble(p *Program) string {
	byIdx := make(map[int][]string)
	for name, idx := range p.Symbols {
		byIdx[idx] = append(byIdx[idx], name)
	}
	out := ""
	for idx, ins := range p.Instrs {
		names := byIdx[idx]
		sort.Strings(names)
		for _, n := range names {
			out += n + ":\n"
		}
		out += fmt.Sprintf("%4d\t%s\n", idx, ins)
	}
	return out
}
