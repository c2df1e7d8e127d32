package mem_test

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/platform"
)

// builtins are the built-in policies whose adapters the bank must serve
// through the one Handle contract.
var builtins = []platform.PolicyKind{platform.PolicyPlain, platform.PolicyLRSCSingle,
	platform.PolicyLRSCTable, platform.PolicyWaitQueue, platform.PolicyColibri}

// classStreams is one uncontended request stream per operation class,
// all on word 0. The mwait stream's first store fires the waiting Mwait
// and its second restores the word, so the stream can repeat.
var classStreams = []struct {
	name string
	reqs []bus.Request
}{
	{"amoadd", []bus.Request{{Op: bus.AmoAdd, Data: 1}}},
	{"load", []bus.Request{{Op: bus.Load}}},
	{"lrsc", []bus.Request{{Op: bus.LR}, {Op: bus.SC, Data: 1}}},
	{"lrscwait", []bus.Request{{Op: bus.LRWait}, {Op: bus.SCWait, Data: 1}}},
	{"mwait", []bus.Request{{Op: bus.MWait, Data: 0},
		{Op: bus.Store, Data: 1, Src: 1}, {Op: bus.Store, Data: 0, Src: 1}}},
}

// newAdapter returns one bank adapter of the policy kind at its default
// parameters on the small topology.
func newAdapter(tb testing.TB, kind platform.PolicyKind) mem.Adapter {
	tb.Helper()
	topo := noc.Small()
	pol, err := platform.ResolvePolicy(kind, platform.PolicyParams{}, topo)
	if err != nil {
		tb.Fatal(err)
	}
	return pol.NewAdapter(platform.BankContext{
		NumBanks: topo.NumBanks(), NumCores: topo.NumCores(), Topo: topo,
	})
}

// BenchmarkBankTick measures one bank serving one pass of an operation
// class's stream under each built-in policy's adapter: per request,
// push it, tick the bank until it is idle again and pop every response.
// The adapter appends into the bank's reused buffer, so steady state
// must run at 0 allocs/op for every policy and class.
func BenchmarkBankTick(b *testing.B) {
	for _, kind := range builtins {
		for _, cs := range classStreams {
			b.Run("policy="+string(kind)+"/op="+cs.name, func(b *testing.B) {
				var clock engine.Clock
				in := engine.NewFIFO[bus.Request](2, &clock)
				out := engine.NewFIFO[bus.Response](2, &clock)
				bank := mem.NewBank(0, 1, 64, newAdapter(b, kind), in, out)

				step := func() {
					n := 0
					for _, req := range cs.reqs {
						in.Push(req)
						clock.Advance()
						for {
							bank.Tick()
							clock.Advance()
							for _, ok := out.Pop(); ok; _, ok = out.Pop() {
								n++
							}
							if bank.Idle() {
								break
							}
						}
					}
					if n == 0 {
						b.Fatal("no response after the stream")
					}
				}
				step() // warm the bank's buffers before measuring
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}
