package cpu

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/mem"
)

// loopMem is a Port wired straight to a single bank adapter, returning
// responses with a one-cycle delay. It lets core semantics be tested
// without the fabric.
type stamped struct {
	resp bus.Response
	at   engine.Cycle
}

type loopMem struct {
	store   map[uint32]uint32
	adapter mem.Adapter
	queue   []stamped
	clk     *engine.Clock
}

func newLoopMem(clk *engine.Clock) *loopMem {
	return &loopMem{store: map[uint32]uint32{}, adapter: mem.PlainAdapter{}, clk: clk}
}

func (m *loopMem) Read(a uint32) uint32 { return m.store[a] }
func (m *loopMem) Write(a, v uint32)    { m.store[a] = v }
func (m *loopMem) BankID() int          { return 0 }

func (m *loopMem) TryIssue(r bus.Request) bool {
	for _, resp := range m.adapter.Handle(r, m, nil) {
		m.queue = append(m.queue, stamped{resp: resp, at: m.clk.Now()})
	}
	return true
}

// deliver passes at most one queued response to the core, two cycles after
// it was produced (models the round trip).
func (m *loopMem) deliver(c *Core) {
	if len(m.queue) == 0 || m.queue[0].at+1 >= m.clk.Now() {
		return
	}
	resp := m.queue[0].resp
	m.queue = m.queue[1:]
	c.Deliver(resp)
}

// run executes prog on a fresh core until HALT or maxCycles.
func run(t *testing.T, b *isa.Builder, maxCycles int, setup func(*Core, *loopMem)) (*Core, *loopMem) {
	t.Helper()
	prog := b.MustBuild()
	var clk engine.Clock
	m := newLoopMem(&clk)
	c := New(0, 1, &clk, m, prog)
	if setup != nil {
		setup(c, m)
	}
	for i := 0; i < maxCycles && !c.Halted(); i++ {
		c.Tick()
		clk.Advance()
		m.deliver(c)
	}
	if !c.Halted() {
		t.Fatalf("program did not halt in %d cycles (pc=%d)", maxCycles, c.PC())
	}
	return c, m
}

func TestALUAndBranches(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.T0, 10)
	b.Li(isa.T1, 3)
	b.Add(isa.T2, isa.T0, isa.T1)  // 13
	b.Sub(isa.T3, isa.T0, isa.T1)  // 7
	b.Mul(isa.T4, isa.T0, isa.T1)  // 30
	b.Slli(isa.T5, isa.T1, 4)      // 48
	b.Srai(isa.T6, isa.T0, 1)      // 5
	b.Slt(isa.S0, isa.T1, isa.T0)  // 1
	b.Sltu(isa.S1, isa.T0, isa.T1) // 0
	b.Halt()
	c, _ := run(t, b, 100, nil)
	want := map[isa.Reg]uint32{
		isa.T2: 13, isa.T3: 7, isa.T4: 30, isa.T5: 48, isa.T6: 5,
		isa.S0: 1, isa.S1: 0,
	}
	for r, v := range want {
		if got := c.Reg(r); got != v {
			t.Errorf("%v = %d, want %d", r, got, v)
		}
	}
}

func TestSignedUnsignedComparisons(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.T0, -1)
	b.Li(isa.T1, 1)
	b.Slt(isa.T2, isa.T0, isa.T1)  // -1 < 1 signed: 1
	b.Sltu(isa.T3, isa.T0, isa.T1) // 0xffffffff < 1 unsigned: 0
	b.Srai(isa.T4, isa.T0, 4)      // still -1
	b.Srli(isa.T5, isa.T0, 28)     // 0xf
	b.Halt()
	c, _ := run(t, b, 100, nil)
	if c.Reg(isa.T2) != 1 || c.Reg(isa.T3) != 0 {
		t.Errorf("slt/sltu = %d/%d", c.Reg(isa.T2), c.Reg(isa.T3))
	}
	if c.Reg(isa.T4) != 0xffffffff || c.Reg(isa.T5) != 0xf {
		t.Errorf("srai/srli = %#x/%#x", c.Reg(isa.T4), c.Reg(isa.T5))
	}
}

func TestLoopExecution(t *testing.T) {
	// Sum 1..10 with a countdown loop.
	b := isa.NewBuilder()
	b.Li(isa.T0, 10)
	b.Li(isa.T1, 0)
	b.Label("loop")
	b.Add(isa.T1, isa.T1, isa.T0)
	b.Addi(isa.T0, isa.T0, -1)
	b.Bnez(isa.T0, "loop")
	b.Halt()
	c, _ := run(t, b, 200, nil)
	if got := c.Reg(isa.T1); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestJalJalrSubroutine(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.A0, 5)
	b.Jal(isa.RA, "double")
	b.Jal(isa.RA, "double")
	b.Halt()
	b.Label("double")
	b.Add(isa.A0, isa.A0, isa.A0)
	b.Ret()
	c, _ := run(t, b, 100, nil)
	if got := c.Reg(isa.A0); got != 20 {
		t.Errorf("a0 = %d, want 20", got)
	}
}

func TestX0Hardwired(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.Zero, 99) // must be ignored
	b.Add(isa.T0, isa.Zero, isa.Zero)
	b.Halt()
	c, _ := run(t, b, 10, nil)
	if c.Reg(isa.Zero) != 0 || c.Reg(isa.T0) != 0 {
		t.Error("x0 is writable")
	}
}

func TestLoadStore(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.A0, 0x100)
	b.Li(isa.T0, 1234)
	b.Sw(isa.T0, isa.A0, 0)
	b.Lw(isa.T1, isa.A0, 0)
	b.Addi(isa.T1, isa.T1, 1)
	b.Sw(isa.T1, isa.A0, 4)
	b.Lw(isa.T2, isa.A0, 4)
	b.Halt()
	c, m := run(t, b, 100, nil)
	if c.Reg(isa.T2) != 1235 {
		t.Errorf("t2 = %d, want 1235", c.Reg(isa.T2))
	}
	if m.store[0x100] != 1234 || m.store[0x104] != 1235 {
		t.Errorf("memory = %v", m.store)
	}
}

func TestAMOs(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.A0, 0x40)
	b.Li(isa.T0, 5)
	b.AmoAdd(isa.T1, isa.T0, isa.A0)  // old 100 -> 105
	b.AmoSwap(isa.T2, isa.T0, isa.A0) // old 105 -> 5
	b.AmoMax(isa.T3, isa.T1, isa.A0)  // old 5, max(5,100)=100
	b.Halt()
	c, m := run(t, b, 100, func(_ *Core, m *loopMem) { m.store[0x40] = 100 })
	if c.Reg(isa.T1) != 100 || c.Reg(isa.T2) != 105 || c.Reg(isa.T3) != 5 {
		t.Errorf("amo results = %d,%d,%d", c.Reg(isa.T1), c.Reg(isa.T2), c.Reg(isa.T3))
	}
	if m.store[0x40] != 100 {
		t.Errorf("final memory = %d, want 100", m.store[0x40])
	}
}

func TestMarkAndCSRs(t *testing.T) {
	b := isa.NewBuilder()
	b.Mark()
	b.Mark()
	b.CoreID(isa.T0)
	b.NCores(isa.T1)
	b.Cycle(isa.T2)
	b.Halt()
	c, _ := run(t, b, 100, nil)
	if c.Stats.Ops != 2 {
		t.Errorf("ops = %d, want 2", c.Stats.Ops)
	}
	if c.Reg(isa.T0) != 0 || c.Reg(isa.T1) != 1 {
		t.Errorf("id/ncores = %d/%d", c.Reg(isa.T0), c.Reg(isa.T1))
	}
	if c.Reg(isa.T2) == 0 {
		t.Error("cycle CSR never advanced")
	}
}

func TestPauseStallsExactly(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.T0, 7)
	b.Pause(isa.T0)
	b.Halt()
	c, _ := run(t, b, 100, nil)
	if c.Stats.PauseCycles != 7 {
		t.Errorf("pause cycles = %d, want 7", c.Stats.PauseCycles)
	}
	// li + pause + halt-entry: busy cycles.
	if c.Stats.BusyCycles != 3 {
		t.Errorf("busy cycles = %d, want 3", c.Stats.BusyCycles)
	}
}

func TestPauseZeroIsNop(t *testing.T) {
	b := isa.NewBuilder()
	b.Pause(isa.Zero)
	b.Halt()
	c, _ := run(t, b, 10, nil)
	if c.Stats.PauseCycles != 0 {
		t.Errorf("pause cycles = %d, want 0", c.Stats.PauseCycles)
	}
}

func TestSCResultConvention(t *testing.T) {
	// Plain adapter: LR grants no reservation, so SC returns 1 (failure).
	b := isa.NewBuilder()
	b.Li(isa.A0, 0x10)
	b.Lr(isa.T0, isa.A0)
	b.Sc(isa.T1, isa.T0, isa.A0)
	b.Halt()
	c, _ := run(t, b, 100, nil)
	if c.Reg(isa.T1) != 1 {
		t.Errorf("failed SC rd = %d, want 1", c.Reg(isa.T1))
	}
	if c.Stats.SCFail != 1 {
		t.Errorf("SCFail = %d, want 1", c.Stats.SCFail)
	}
}

func TestStatsCycleClassification(t *testing.T) {
	b := isa.NewBuilder()
	b.Li(isa.A0, 0x10)
	b.Lw(isa.T0, isa.A0, 0)
	b.Halt()
	c, _ := run(t, b, 100, nil)
	if c.Stats.MemWaitCycles == 0 {
		t.Error("load never counted as memory wait")
	}
	if c.Stats.SleepCycles != 0 {
		t.Error("plain load counted as sleep")
	}
}

func TestPCOutOfRangePanics(t *testing.T) {
	b := isa.NewBuilder()
	b.Nop() // falls off the end
	prog := b.MustBuild()
	var clk engine.Clock
	c := New(0, 1, &clk, newLoopMem(&clk), prog)
	defer func() {
		if recover() == nil {
			t.Fatal("running past program end did not panic")
		}
	}()
	for i := 0; i < 5; i++ {
		c.Tick()
		clk.Advance()
	}
}
