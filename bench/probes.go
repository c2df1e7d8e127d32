package main

import (
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/noc"
)

// probeReps is how many times each layer probe is timed; the median
// is reported.
const probeReps = 5

// probe times n iterations of step after setup, probeReps times, and
// returns the median nanoseconds per iteration.
func probe(n int, setup func() (step func())) float64 {
	var per []float64
	for rep := 0; rep < probeReps; rep++ {
		step := setup()
		t := time.Now()
		for i := 0; i < n; i++ {
			step()
		}
		per = append(per, float64(time.Since(t))/float64(n))
	}
	return median(per)
}

// runProbes times the kernel's innermost primitives on synthetic inputs
// through their public constructors: a FIFO push/pop pair, a 4-port
// router pass with every input occupied, a bank serving an AMO, and a
// two-party phase-barrier round trip.
func runProbes(r *result, mini bool) {
	n := 200_000
	if mini {
		n = 2_000
	}
	r.set("engine.fifo_pushpop_ns", probe(n, func() func() {
		var clock engine.Clock
		f := engine.NewFIFO[bus.Request](2, &clock)
		return func() {
			f.Push(bus.Request{Op: bus.AmoAdd, Addr: 4, Data: 1})
			clock.Advance()
			f.Pop()
		}
	}))

	const ports = 4
	r.set("noc.router_tick_ns", probe(n, func() func() {
		var clock engine.Clock
		in := make([]*engine.FIFO[bus.Request], ports)
		out := make([]*engine.FIFO[bus.Request], ports)
		for i := range in {
			in[i] = engine.NewFIFO[bus.Request](2, &clock)
			out[i] = engine.NewFIFO[bus.Request](2, &clock)
		}
		router := noc.NewRouter("probe", in, out, func(q bus.Request) int { return int(q.Addr) % ports })
		return func() {
			for j := range in {
				in[j].Push(bus.Request{Op: bus.AmoAdd, Addr: uint32(j), Src: j})
			}
			clock.Advance()
			router.Tick()
			clock.Advance()
			for j := range out {
				out[j].Pop()
			}
		}
	}))

	r.set("mem.bank_amo_ns", probe(n, func() func() {
		var clock engine.Clock
		in := engine.NewFIFO[bus.Request](2, &clock)
		out := engine.NewFIFO[bus.Response](2, &clock)
		bank := mem.NewBank(0, 1, 64, mem.PlainAdapter{}, in, out)
		return func() {
			in.Push(bus.Request{Op: bus.AmoAdd, Addr: 0, Data: 1})
			clock.Advance()
			bank.Tick()
			clock.Advance()
			out.Pop()
		}
	}))

	// The barrier needs a partner: each timed rep runs n round trips
	// against a goroutine doing the same.
	var per []float64
	for rep := 0; rep < probeReps; rep++ {
		b := engine.NewBarrier(2)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				b.Wait(nil)
			}
		}()
		t := time.Now()
		for i := 0; i < n; i++ {
			b.Wait(nil)
		}
		per = append(per, float64(time.Since(t))/float64(n))
		wg.Wait()
	}
	r.set("engine.barrier_rt_ns", median(per))
}
