package noc

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/engine"
)

// BenchmarkRouterTick measures one router crossbar pass at three port
// shapes. ports=4x4 is a small crossbar; ports=9x36 is a TeraPool tile
// request router (8 cores plus group ingress in, 32 banks plus 4 group
// egress ports out); ports=33x12 is a TeraPool tile response router (32
// banks plus group ingress in, 8 cores plus 4 egress ports out). The
// occupancy regimes are "dense" (every input holds a routable flit — a
// contended tile router under a hot kernel), "sparse" (one occupied
// input among many — the common case for link arbiters and response
// tile routers most cycles), "partial" (half the heads wait on full
// outputs, half move — a router at the edge of a hot spot) and
// "blocked" (every head routed to a full output — the stalled tick the
// fabric skips by putting the router to sleep). All must run at 0
// allocs/op: the occupancy masks and request sets inside Tick are
// words of the router and its output ports, set up at construction.
func BenchmarkRouterTick(b *testing.B) {
	build := func(ins, outs int) (*engine.Clock, []*engine.FIFO[bus.Request], []*engine.FIFO[bus.Request], *Router[bus.Request]) {
		var clock engine.Clock
		in := make([]*engine.FIFO[bus.Request], ins)
		out := make([]*engine.FIFO[bus.Request], outs)
		for i := range in {
			in[i] = engine.NewFIFO[bus.Request](2, &clock)
		}
		for o := range out {
			out[o] = engine.NewFIFO[bus.Request](2, &clock)
		}
		route := func(r bus.Request) int { return int(r.Addr) % outs }
		return &clock, in, out, NewRouter("bench", in, out, route)
	}
	// dense sends input j to output j*stride, every flit moving.
	dense := func(b *testing.B, ins, outs, stride int) {
		clock, in, out, r := build(ins, outs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range in {
				in[j].Push(bus.Request{Op: bus.AmoAdd, Addr: uint32(j * stride), Src: j})
			}
			clock.Advance()
			if moved := r.Tick(); moved != ins {
				b.Fatalf("moved %d flits, want %d", moved, ins)
			}
			clock.Advance()
			for j := range in {
				out[j*stride].Pop()
			}
		}
	}

	b.Run("ports=4x4/occ=dense", func(b *testing.B) { dense(b, 4, 4, 1) })

	b.Run("ports=4x4/occ=sparse", func(b *testing.B) {
		const ports = 4
		clock, in, out, r := build(ports, ports)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in[0].Push(bus.Request{Op: bus.AmoAdd, Addr: uint32(i % ports), Src: 0})
			clock.Advance()
			if moved := r.Tick(); moved != 1 {
				b.Fatalf("moved %d flits, want 1", moved)
			}
			clock.Advance()
			out[i%ports].Pop()
		}
	})

	b.Run("ports=9x36/occ=dense", func(b *testing.B) { dense(b, 9, 36, 4) })

	b.Run("ports=9x36/occ=partial", func(b *testing.B) {
		const blocked = 4 // inputs 0..3 wait on full outputs, 4..8 move
		clock, in, out, r := build(9, 36)
		for j := 0; j < blocked; j++ {
			for !out[j*4].Full() {
				out[j*4].Push(bus.Request{Op: bus.AmoAdd, Addr: uint32(j * 4)})
			}
			in[j].Push(bus.Request{Op: bus.AmoAdd, Addr: uint32(j * 4), Src: j})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := blocked; j < len(in); j++ {
				in[j].Push(bus.Request{Op: bus.AmoAdd, Addr: uint32(j * 4), Src: j})
			}
			clock.Advance()
			if moved := r.Tick(); moved != len(in)-blocked {
				b.Fatalf("moved %d flits, want %d", moved, len(in)-blocked)
			}
			clock.Advance()
			for j := blocked; j < len(in); j++ {
				out[j*4].Pop()
			}
		}
	})

	b.Run("ports=33x12/occ=sparse", func(b *testing.B) {
		const bank = 5 // one bank input among 33
		clock, in, out, r := build(33, 12)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in[bank].Push(bus.Request{Op: bus.AmoAdd, Addr: uint32(i % 12), Src: bank})
			clock.Advance()
			if moved := r.Tick(); moved != 1 {
				b.Fatalf("moved %d flits, want 1", moved)
			}
			clock.Advance()
			out[i%12].Pop()
		}
	})

	b.Run("ports=9x36/occ=blocked", func(b *testing.B) {
		clock, in, out, r := build(9, 36)
		for j := range in {
			for !out[j].Full() {
				out[j].Push(bus.Request{Op: bus.AmoAdd, Addr: uint32(j)})
			}
			in[j].Push(bus.Request{Op: bus.AmoAdd, Addr: uint32(j), Src: j})
		}
		clock.Advance()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if moved := r.Tick(); moved != 0 {
				b.Fatalf("moved %d flits, want 0", moved)
			}
		}
	})
}
