package mem

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/engine"
)

func TestAmoALU(t *testing.T) {
	cases := []struct {
		op       bus.Op
		old, arg uint32
		want     uint32
	}{
		{bus.AmoAdd, 5, 3, 8},
		{bus.AmoAdd, 0xffffffff, 1, 0},
		{bus.AmoSwap, 5, 3, 3},
		{bus.AmoAnd, 0b1100, 0b1010, 0b1000},
		{bus.AmoOr, 0b1100, 0b1010, 0b1110},
		{bus.AmoXor, 0b1100, 0b1010, 0b0110},
		{bus.AmoMin, 5, 0xffffffff, 0xffffffff}, // -1 < 5 signed
		{bus.AmoMax, 5, 0xffffffff, 5},
		{bus.AmoMinU, 5, 0xffffffff, 5},
		{bus.AmoMaxU, 5, 0xffffffff, 0xffffffff},
	}
	for _, c := range cases {
		if got := AmoALU(c.op, c.old, c.arg); got != c.want {
			t.Errorf("AmoALU(%v, %d, %d) = %d, want %d", c.op, c.old, c.arg, got, c.want)
		}
	}
}

func TestAmoALUPanicsOnNonAMO(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AmoALU(Load) did not panic")
		}
	}()
	AmoALU(bus.Load, 0, 0)
}

// newTestBank wires a bank with its own FIFOs for isolated testing.
func newTestBank(t *testing.T, adapter Adapter) (*Bank, *engine.Clock) {
	t.Helper()
	clk := &engine.Clock{}
	in := engine.NewFIFO[bus.Request](4, clk)
	out := engine.NewFIFO[bus.Response](4, clk)
	// Bank 0 of 1 bank: every word-aligned address belongs to it.
	return NewBank(0, 1, 1024, adapter, in, out), clk
}

func runBank(b *Bank, clk *engine.Clock, cycles int) []bus.Response {
	var got []bus.Response
	for i := 0; i < cycles; i++ {
		b.Tick()
		clk.Advance()
		if r, ok := b.Out.Pop(); ok {
			got = append(got, r)
		}
	}
	return got
}

func TestBankLoadStore(t *testing.T) {
	b, clk := newTestBank(t, PlainAdapter{})
	b.In.Push(bus.Request{Op: bus.Store, Addr: 8, Data: 99, Src: 1})
	clk.Advance()
	b.In.Push(bus.Request{Op: bus.Load, Addr: 8, Src: 1})
	got := runBank(b, clk, 10)
	if len(got) != 2 {
		t.Fatalf("got %d responses, want 2", len(got))
	}
	if got[0].Op != bus.Store || !got[0].OK {
		t.Errorf("store ack = %v", got[0])
	}
	if got[1].Op != bus.Load || got[1].Data != 99 {
		t.Errorf("load = %v, want data 99", got[1])
	}
	if b.Peek(8) != 99 {
		t.Errorf("memory word = %d, want 99", b.Peek(8))
	}
}

func TestBankOneRequestPerCycle(t *testing.T) {
	b, clk := newTestBank(t, PlainAdapter{})
	b.In.Push(bus.Request{Op: bus.Load, Addr: 0, Src: 0})
	b.In.Push(bus.Request{Op: bus.Load, Addr: 4, Src: 0})
	clk.Advance()
	b.Tick() // cycle 1: first request processed
	if b.Stats.Accesses != 1 {
		t.Fatalf("accesses after one tick = %d, want 1", b.Stats.Accesses)
	}
	clk.Advance()
	b.Tick()
	if b.Stats.Accesses != 2 {
		t.Fatalf("accesses after two ticks = %d, want 2", b.Stats.Accesses)
	}
}

func TestBankAMO(t *testing.T) {
	b, clk := newTestBank(t, PlainAdapter{})
	b.Poke(0, 10)
	b.In.Push(bus.Request{Op: bus.AmoAdd, Addr: 0, Data: 5, Src: 2})
	got := runBank(b, clk, 5)
	if len(got) != 1 || got[0].Data != 10 {
		t.Fatalf("AMO response = %v, want old value 10", got)
	}
	if b.Peek(0) != 15 {
		t.Errorf("memory after amoadd = %d, want 15", b.Peek(0))
	}
}

func TestBankBackpressureOnResponsePort(t *testing.T) {
	clk := &engine.Clock{}
	in := engine.NewFIFO[bus.Request](8, clk)
	out := engine.NewFIFO[bus.Response](1, clk) // tiny response port
	b := NewBank(0, 1, 64, PlainAdapter{}, in, out)
	for i := 0; i < 4; i++ {
		in.Push(bus.Request{Op: bus.Load, Addr: uint32(4 * i), Src: 0})
	}
	clk.Advance()
	// Never drain the output: the bank must stop accepting once blocked.
	for i := 0; i < 10; i++ {
		b.Tick()
		clk.Advance()
	}
	if b.Stats.Accesses > 2 {
		t.Errorf("bank processed %d requests with a blocked response port", b.Stats.Accesses)
	}
	// Drain and confirm no loss.
	seen := 0
	for i := 0; i < 30 && seen < 4; i++ {
		if _, ok := out.Pop(); ok {
			seen++
		}
		b.Tick()
		clk.Advance()
	}
	if seen != 4 {
		t.Errorf("responses seen = %d, want 4", seen)
	}
}

func TestBankUnalignedPanics(t *testing.T) {
	b, _ := newTestBank(t, PlainAdapter{})
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not panic")
		}
	}()
	b.Peek(2)
}

func TestBankWrongBankPanics(t *testing.T) {
	clk := &engine.Clock{}
	in := engine.NewFIFO[bus.Request](2, clk)
	out := engine.NewFIFO[bus.Response](2, clk)
	b := NewBank(1, 4, 64, PlainAdapter{}, in, out) // bank 1 of 4
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-bank access did not panic")
		}
	}()
	b.Peek(0) // word 0 belongs to bank 0
}

func TestBankLazyStorage(t *testing.T) {
	clk := &engine.Clock{}
	in := engine.NewFIFO[bus.Request](2, clk)
	out := engine.NewFIFO[bus.Response](2, clk)
	b := NewBank(1, 4, 64, PlainAdapter{}, in, out)
	if got := b.Peek(4); got != 0 || b.Read(4+16*63) != 0 {
		t.Errorf("untouched bank read %d, want 0", got)
	}
	if b.words != nil {
		t.Fatal("reads allocated the bank's words")
	}
	capacity := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s beyond capacity did not panic", name)
			}
		}()
		f()
	}
	beyond := uint32(4 + 16*64) // bank 1, local word 64 of 64
	capacity("Peek", func() { b.Peek(beyond) })
	capacity("Poke", func() { b.Poke(beyond, 1) })
	if b.words != nil {
		t.Fatal("a refused Poke allocated the bank's words")
	}
	b.Write(4+16*63, 9)
	if len(b.words) != 64 || b.Peek(4+16*63) != 9 || b.Peek(4) != 0 {
		t.Errorf("first write: len %d, words %d/%d", len(b.words), b.Peek(4+16*63), b.Peek(4))
	}
	capacity("Write", func() { b.Write(beyond, 1) })
}

// TestBankStorageGrows pins that a bank allocates only the words up to
// the highest one written, doubling from minBankWords, keeps what it
// holds as it grows, and reads a word past them as zero.
func TestBankStorageGrows(t *testing.T) {
	clk := &engine.Clock{}
	in := engine.NewFIFO[bus.Request](2, clk)
	out := engine.NewFIFO[bus.Response](2, clk)
	b := NewBank(1, 4, 1024, PlainAdapter{}, in, out)
	addr := func(word int) uint32 { return uint32(4 + 16*word) } // bank 1, local word
	b.Poke(addr(0), 7)
	if len(b.words) != minBankWords {
		t.Fatalf("after word 0: len %d, want %d", len(b.words), minBankWords)
	}
	b.Write(addr(40), 9)
	if len(b.words) != 64 || b.Peek(addr(0)) != 7 || b.Peek(addr(40)) != 9 {
		t.Fatalf("after word 40: len %d, words %d/%d", len(b.words), b.Peek(addr(0)), b.Peek(addr(40)))
	}
	if got := b.Read(addr(1000)); got != 0 || len(b.words) != 64 {
		t.Errorf("read past the words: %d, len %d", got, len(b.words))
	}
	b.Poke(addr(1023), 3)
	if len(b.words) != 1024 || b.Peek(addr(1023)) != 3 || b.Peek(addr(40)) != 9 {
		t.Errorf("after the last word: len %d, words %d/%d", len(b.words), b.Peek(addr(1023)), b.Peek(addr(40)))
	}
}

func TestBankInterleavedIndexing(t *testing.T) {
	clk := &engine.Clock{}
	in := engine.NewFIFO[bus.Request](2, clk)
	out := engine.NewFIFO[bus.Response](2, clk)
	b := NewBank(1, 4, 64, PlainAdapter{}, in, out)
	// Word addresses 1, 5, 9 map to bank 1 local words 0, 1, 2.
	b.Poke(4, 11)
	b.Poke(4+16, 22)
	if b.Peek(4) != 11 || b.Peek(20) != 22 {
		t.Error("interleaved indexing broken")
	}
}

func TestPlainAdapterRefusesReservations(t *testing.T) {
	b, clk := newTestBank(t, PlainAdapter{})
	b.Poke(0, 7)
	b.In.Push(bus.Request{Op: bus.LR, Addr: 0, Src: 0})
	clk.Advance()
	b.In.Push(bus.Request{Op: bus.SC, Addr: 0, Data: 1, Src: 0})
	got := runBank(b, clk, 8)
	if len(got) != 2 {
		t.Fatalf("responses = %d, want 2", len(got))
	}
	if got[0].Data != 7 || got[0].OK {
		t.Errorf("plain LR = %v, want data with OK=false", got[0])
	}
	if got[1].OK {
		t.Errorf("plain SC succeeded: %v", got[1])
	}
	if b.Peek(0) != 7 {
		t.Error("failed SC wrote memory")
	}
}
