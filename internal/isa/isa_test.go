package isa

import (
	"strings"
	"testing"
)

func TestBuilderLabels(t *testing.T) {
	b := NewBuilder()
	b.Li(T0, 0)
	b.Label("loop")
	b.Addi(T0, T0, 1)
	b.Bne(T0, T1, "loop")
	b.J("end")
	b.Nop()
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Instrs[2].Imm; got != 1 {
		t.Errorf("bne target = %d, want 1", got)
	}
	if got := p.Instrs[3].Imm; got != 5 {
		t.Errorf("j target = %d, want 5", got)
	}
	if p.Symbols["loop"] != 1 || p.Symbols["end"] != 5 {
		t.Errorf("symbols = %v", p.Symbols)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.J("nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build with undefined label succeeded")
	}
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate label did not panic")
		}
	}()
	b := NewBuilder()
	b.Label("x")
	b.Label("x")
}

func TestBuilderForwardAndBackwardRefs(t *testing.T) {
	b := NewBuilder()
	b.Label("top")
	b.Beq(A0, A1, "bottom") // forward
	b.J("top")              // backward
	b.Label("bottom")
	b.Halt()
	p := b.MustBuild()
	if p.Instrs[0].Imm != 2 || p.Instrs[1].Imm != 0 {
		t.Fatalf("targets = %d, %d; want 2, 0", p.Instrs[0].Imm, p.Instrs[1].Imm)
	}
}

func TestDisassemble(t *testing.T) {
	b := NewBuilder()
	b.Label("start")
	b.Li(A0, 7)
	b.Label("loop")
	b.Addi(A0, A0, -1)
	b.Bnez(A0, "loop")
	b.Halt()
	text := Disassemble(b.MustBuild())
	for _, want := range []string{"start:", "loop:", "li a0, 7", "addi a0, a0, -1", "bne a0, zero, @1", "halt"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: NOP}, "nop"},
		{Instr{Op: LI, Rd: T0, Imm: 5}, "li t0, 5"},
		{Instr{Op: ADD, Rd: A0, Rs1: A1, Rs2: A2}, "add a0, a1, a2"},
		{Instr{Op: LW, Rd: T1, Rs1: SP, Imm: 8}, "lw t1, 8(sp)"},
		{Instr{Op: SW, Rs2: T1, Rs1: SP, Imm: 8}, "sw t1, 8(sp)"},
		{Instr{Op: LRWAIT, Rd: T2, Rs1: A0}, "lr.wait t2, (a0)"},
		{Instr{Op: SCWAIT, Rd: T3, Rs2: T2, Rs1: A0}, "sc.wait t3, t2, (a0)"},
		{Instr{Op: MWAIT, Rd: T4, Rs2: Zero, Rs1: A0}, "mwait t4, zero, (a0)"},
		{Instr{Op: AMOADD, Rd: T5, Rs2: T0, Rs1: A0}, "amoadd.w t5, t0, (a0)"},
		{Instr{Op: PAUSE, Rs1: T0}, "pause t0"},
		{Instr{Op: CSRID, Rd: A0}, "csrr.id a0"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestOpcodePredicates(t *testing.T) {
	memOps := []Opcode{LW, SW, LRI, SCI, LRWAIT, SCWAIT, MWAIT, AMOADD, AMOMAXU}
	for _, op := range memOps {
		if !op.IsMem() {
			t.Errorf("%v.IsMem() = false", op)
		}
	}
	nonMem := []Opcode{NOP, ADD, LI, BEQ, JAL, MARK, PAUSE, CSRID}
	for _, op := range nonMem {
		if op.IsMem() {
			t.Errorf("%v.IsMem() = true", op)
		}
	}
	for _, op := range []Opcode{BEQ, BGEU, JAL, JALR} {
		if !op.IsBranch() {
			t.Errorf("%v.IsBranch() = false", op)
		}
	}
	if ADD.IsBranch() || LW.IsBranch() {
		t.Error("non-branch opcodes report IsBranch")
	}
}

func TestRegString(t *testing.T) {
	if Zero.String() != "zero" || RA.String() != "ra" || T6.String() != "t6" {
		t.Error("ABI register names wrong")
	}
	if Reg(40).String() != "x40" {
		t.Error("out-of-range register name wrong")
	}
}
