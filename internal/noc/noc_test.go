package noc

import (
	"testing"
	"testing/quick"

	"repro/internal/bus"
	"repro/internal/engine"
)

func TestTopologyCounts(t *testing.T) {
	mp := MemPool256()
	if got := mp.NumCores(); got != 256 {
		t.Errorf("NumCores = %d, want 256", got)
	}
	if got := mp.NumBanks(); got != 1024 {
		t.Errorf("NumBanks = %d, want 1024", got)
	}
	if got := mp.NumTiles(); got != 64 {
		t.Errorf("NumTiles = %d, want 64", got)
	}
	if err := mp.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	bad := Topology{}
	if err := bad.Validate(); err == nil {
		t.Error("zero topology validated")
	}
}

func TestTeraPool1024Topology(t *testing.T) {
	tp := TeraPool1024()
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := tp.NumCores(); got != 1024 {
		t.Errorf("NumCores = %d, want 1024", got)
	}
	if got := tp.NumBanks(); got != 4096 {
		t.Errorf("NumBanks = %d, want 4096", got)
	}
	if got := tp.NumTiles(); got != 128 {
		t.Errorf("NumTiles = %d, want 128", got)
	}
	// Every bank must be addressable through the word-interleaved map.
	for _, b := range []int{0, 1, tp.NumBanks() - 1} {
		addr := uint32(4 * b)
		if got := tp.BankOfAddr(addr); got != b {
			t.Errorf("BankOfAddr(%#x) = %d, want %d", addr, got, b)
		}
	}
}

func TestTopologyMapping(t *testing.T) {
	mp := MemPool256()
	// Word interleaving: consecutive words hit consecutive banks.
	for w := 0; w < 4; w++ {
		if got := mp.BankOfAddr(uint32(4 * w)); got != w {
			t.Errorf("BankOfAddr(%d) = %d, want %d", 4*w, got, w)
		}
	}
	// Wrap-around goes back to bank 0.
	if got := mp.BankOfAddr(4 * 1024); got != 0 {
		t.Errorf("BankOfAddr(4096 words in) = %d, want 0", got)
	}
}

// run ticks the fabric and clock once.
func step(f *Fabric, clk *engine.Clock) {
	f.Tick()
	clk.Advance()
}

func TestFabricLocalDelivery(t *testing.T) {
	var clk engine.Clock
	topo := Small()
	f := NewFabric(topo, &clk, 2)
	req := bus.Request{Op: bus.Load, Addr: 0, Src: 0} // bank 0 is in core 0's tile
	if !f.CoreReq[0].Push(req) {
		t.Fatal("injection failed")
	}
	for cycle := 0; cycle < 10; cycle++ {
		step(f, &clk)
		if got, ok := f.BankReq[0].Pop(); ok {
			if got.Src != 0 || got.Op != bus.Load {
				t.Fatalf("wrong message delivered: %v", got)
			}
			if cycle > 3 {
				t.Errorf("local delivery took %d cycles, want <= 3", cycle+1)
			}
			return
		}
	}
	t.Fatal("request never delivered to local bank")
}

func TestFabricRemoteDeliveryLatency(t *testing.T) {
	var clk engine.Clock
	topo := Small()
	f := NewFabric(topo, &clk, 2)
	// Bank in the other group: core 0 is group 0; last bank is group 1.
	remoteBank := topo.NumBanks() - 1
	addr := uint32(remoteBank * 4)
	if got := topo.BankOfAddr(addr); got != remoteBank {
		t.Fatalf("test setup: addr maps to bank %d", got)
	}
	f.CoreReq[0].Push(bus.Request{Op: bus.Load, Addr: addr, Src: 0})
	localCycles, remoteCycles := -1, -1
	f2 := NewFabric(topo, &clk, 2) // fresh fabric on same clock for local
	f2.CoreReq[0].Push(bus.Request{Op: bus.Load, Addr: 0, Src: 0})
	for cycle := 1; cycle <= 20; cycle++ {
		step(f, &clk)
		f2.Tick()
		if _, ok := f.BankReq[remoteBank].Pop(); ok && remoteCycles < 0 {
			remoteCycles = cycle
		}
		if _, ok := f2.BankReq[0].Pop(); ok && localCycles < 0 {
			localCycles = cycle
		}
	}
	if localCycles < 0 || remoteCycles < 0 {
		t.Fatalf("delivery incomplete: local=%d remote=%d", localCycles, remoteCycles)
	}
	if remoteCycles <= localCycles {
		t.Errorf("remote (%d cycles) should be slower than local (%d)", remoteCycles, localCycles)
	}
}

func TestFabricResponsePath(t *testing.T) {
	var clk engine.Clock
	topo := Small()
	f := NewFabric(topo, &clk, 2)
	lastBank := topo.NumBanks() - 1
	f.BankResp[lastBank].Push(bus.Request{Op: bus.Load, Src: 0}.Reply(42, false))
	for cycle := 0; cycle < 20; cycle++ {
		step(f, &clk)
		if got, ok := f.CoreResp[0].Pop(); ok {
			if got.Data != 42 {
				t.Fatalf("wrong response: %v", got)
			}
			return
		}
	}
	t.Fatal("response never delivered")
}

// TestFabricExactlyOnceInOrder drives random traffic from every core and
// checks that each (core, bank) stream arrives exactly once and in order —
// the ordering property Colibri's correctness argument relies on.
func TestFabricExactlyOnceInOrder(t *testing.T) {
	prop := func(seed uint64) bool {
		var clk engine.Clock
		topo := Small()
		f := NewFabric(topo, &clk, 2)
		rng := engine.NewRNG(seed)
		nCores, nBanks := topo.NumCores(), topo.NumBanks()
		const perCore = 20
		sent := make([][]uint32, nCores) // per core: sequence of tagged payloads
		idx := make([]int, nCores)
		type key struct{ src, bank int }
		lastSeen := map[key]uint32{}
		received := 0
		for cycle := 0; cycle < 5000 && received < nCores*perCore; cycle++ {
			// Inject: each core tries one request per cycle until done.
			for c := 0; c < nCores; c++ {
				if idx[c] >= perCore {
					continue
				}
				bank := rng.Intn(nBanks)
				tag := uint32(c)<<16 | uint32(idx[c])
				req := bus.Request{Op: bus.Store, Addr: uint32(bank * 4), Src: c, Data: tag}
				if f.CoreReq[c].Push(req) {
					sent[c] = append(sent[c], tag)
					idx[c]++
				}
			}
			step(f, &clk)
			for b := 0; b < nBanks; b++ {
				for {
					got, ok := f.BankReq[b].Pop()
					if !ok {
						break
					}
					k := key{got.Src, b}
					seq := got.Data & 0xffff
					if last, seen := lastSeen[k]; seen && seq <= last {
						return false // reordered or duplicated
					}
					lastSeen[k] = seq
					received++
				}
			}
		}
		return received == nCores*perCore && f.InFlight() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestFabricBackpressureNoLoss stops draining one bank and checks that no
// message is lost, then drains and verifies complete delivery.
func TestFabricBackpressureNoLoss(t *testing.T) {
	var clk engine.Clock
	topo := Small()
	f := NewFabric(topo, &clk, 2)
	const total = 40
	injected := 0
	// All cores hammer bank 0 (hot spot) while nobody drains it.
	for cycle := 0; cycle < 200; cycle++ {
		if injected < total {
			if f.CoreReq[injected%topo.NumCores()].Push(bus.Request{
				Op: bus.Store, Addr: 0, Src: injected % topo.NumCores(),
				Data: uint32(injected),
			}) {
				injected++
			}
		}
		step(f, &clk)
	}
	if f.InFlight() != injected {
		t.Fatalf("in flight = %d, injected = %d (messages lost or duplicated)", f.InFlight(), injected)
	}
	// Now drain.
	got := 0
	for cycle := 0; cycle < 2000 && got < injected; cycle++ {
		step(f, &clk)
		for {
			if _, ok := f.BankReq[0].Pop(); !ok {
				break
			}
			got++
		}
	}
	if got != injected {
		t.Fatalf("drained %d of %d", got, injected)
	}
}

// TestFabricHOLBlocking demonstrates head-of-line blocking: a congested hot
// bank delays traffic to an unrelated bank that shares the path.
func TestFabricHOLBlocking(t *testing.T) {
	topo := Small()
	hot := uint32(0) // bank 0, tile 0
	// Victim address in a different bank of the same tile as the hot bank.
	victim := uint32(4) // bank 1, tile 0

	// Measure victim latency with and without hot-spot traffic from a
	// remote core. The victim request comes from a remote group core so it
	// shares the group->tile path with the hot traffic.
	remoteCore := topo.NumCores() - 1

	measure := func(withHot bool) int {
		var clk engine.Clock
		f := NewFabric(topo, &clk, 2)
		// Saturate: every core in group 0 (except none) fires at the hot
		// bank each cycle; bank 0 is never drained.
		for cycle := 1; cycle <= 400; cycle++ {
			if withHot {
				for c := 0; c < topo.NumCores()/2; c++ {
					f.CoreReq[c].Push(bus.Request{Op: bus.Store, Addr: hot, Src: c})
				}
			}
			if cycle == 50 {
				if !f.CoreReq[remoteCore].Push(bus.Request{Op: bus.Load, Addr: victim, Src: remoteCore}) {
					t.Fatal("victim injection failed")
				}
			}
			step(f, &clk)
			// Victim bank is drained; hot bank is not (worst case).
			if _, ok := f.BankReq[1].Pop(); ok {
				return cycle - 50
			}
		}
		return -1
	}

	base := measure(false)
	congested := measure(true)
	if base < 0 {
		t.Fatal("victim never arrived without congestion")
	}
	if congested != -1 && congested <= base {
		t.Errorf("HOL blocking absent: base=%d congested=%d", base, congested)
	}
}
