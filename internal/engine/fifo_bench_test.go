package engine_test

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/engine"
)

// BenchmarkFIFOPushPop measures the steady-state cost of the FIFO hot
// pair on the fabric's real messages: one Push at cycle t, one Pop at
// t+1. This is the innermost primitive of every router port and bank
// queue, so a regression here multiplies across the whole fabric. A
// message that outgrows Go's register (SSA) limit shows here as a ~3x
// jump (see bus.TestMessagesFitRegisters). Must run at 0 allocs/op.
func BenchmarkFIFOPushPop(b *testing.B) {
	b.Run("msg=Request", func(b *testing.B) {
		benchPushPop(b, [4]bus.Request{
			{Op: bus.AmoAdd, Addr: 4, Data: 1, Src: 3},
			{Op: bus.Load, Addr: 8, Src: 1},
			{Op: bus.MWait, Addr: 12, Data: 7, Src: 1023},
			{Op: bus.Store, Addr: 16, Data: 2, Src: 0},
		})
	})
	b.Run("msg=Response", func(b *testing.B) {
		benchPushPop(b, [4]bus.Response{
			bus.Request{Op: bus.AmoAdd, Addr: 4, Src: 3}.Reply(9, true),
			bus.Request{Op: bus.Load, Addr: 8, Src: 1}.Reply(5, true),
			bus.SuccessorUpdate(2, bus.Request{Op: bus.MWait, Addr: 12, Data: 7, Src: 1023}),
			bus.Request{Op: bus.SC, Addr: 16, Src: 0}.Reply(0, false),
		})
	})
}

func benchPushPop[T any](b *testing.B, msgs [4]T) {
	var clock engine.Clock
	f := engine.NewFIFO[T](2, &clock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Push(msgs[i&3])
		clock.Advance()
		if _, ok := f.Pop(); !ok {
			b.Fatal("pop failed: one-cycle visibility broken")
		}
	}
}
