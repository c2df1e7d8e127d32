// Custompolicy: a new synchronization primitive on the open Policy API.
//
// The platform doesn't know this hardware: the policy is defined here,
// registered through lrscwait.RegisterPolicy, and from that moment is
// addressable from Config.Policy, the cmd -policy flags and the sweep
// engine's policy grid axis exactly like the built-in reservation
// policies — with the litmus-grade memory model, activity accounting,
// caching and emitters all inherited. This file imports only the facade;
// no internal package is touched.
//
// The primitive is NB-FEB (Ha, Tsigas & Anshus: "NB-FEB: A Simple and
// Efficient Synchronization Primitive"), modelled at word granularity:
// every word carries a full/empty bit. A load-reserved (LR or LRwait)
// from a full word takes the word empty and returns its value — an
// acquiring read. While a word is empty, other cores' loads-reserved
// return the value without acquiring (OK=false, the refusal contract:
// software discovers it through the failing store-conditional and
// retries with backoff). The holder's SC/SCwait stores and sets the word
// full again. Unlike MemPool's single-slot LRSC there is no displacement
// — a holder cannot lose its acquisition to a competing LR — and unlike
// the LRSCwait queues nobody sleeps: NB-FEB is retry-based but
// per-address, a different point in the paper's design space.
//
// Run with: go run ./examples/custompolicy
package main

import (
	"fmt"
	"log"
	"os"

	lrscwait "repro"
)

// nbfebPolicy is the registrable policy: name, instance configuration
// and per-bank adapter construction. It also implements the two optional
// hooks — EnergyWeights (NB-FEB pays a full/empty tag read-modify-write
// on every bank access) and AreaRows (one tag bit per word plus tag
// logic per bank), so Table II-style reports and the table1 sweep
// account for the custom hardware without editing either.
type nbfebPolicy struct{}

var (
	_ lrscwait.Policy              = nbfebPolicy{}
	_ lrscwait.PolicyEnergyWeights = nbfebPolicy{}
	_ lrscwait.PolicyAreaRows      = nbfebPolicy{}
)

func (nbfebPolicy) Name() string { return "nbfeb" }

// Normalize reads no parameter: QueueCap and ColibriQueues configure
// the built-in queues, so a policy grid over them leaves NB-FEB as is.
func (p nbfebPolicy) Normalize(lrscwait.PolicyParams, lrscwait.Topology) (lrscwait.Policy, error) {
	return p, nil
}

func (nbfebPolicy) NewAdapter(lrscwait.BankContext) lrscwait.Adapter {
	return &nbfebAdapter{empty: map[uint32]int{}}
}

// EnergyWeights charges every bank activation the extra full/empty tag
// read-modify-write on top of the calibrated model.
func (nbfebPolicy) EnergyWeights() lrscwait.EnergyParams {
	p := lrscwait.DefaultEnergy()
	p.PJPerBank += 0.04
	return p
}

// AreaRows contributes the NB-FEB tile to Table I: one tag bit per SPM
// word plus the tag-update logic, per bank.
func (nbfebPolicy) AreaRows(m lrscwait.AreaModel, nCores int) []lrscwait.AreaRow {
	const perBankKGE = 1.4 // 1024 tag bits + F/E update logic
	return []lrscwait.AreaRow{{
		Design:  "with NB-FEB",
		Params:  "1 F/E bit per word",
		AreaKGE: m.TileBase + float64(m.BanksPerTile)*perBankKGE,
	}}
}

// nbfebAdapter is the memory-side half: per-bank full/empty state.
// Words absent from the map are full; an entry records the core that
// took the word empty. Plain stores and AMOs force a word full (an
// intervening write invalidates the acquisition, like a reservation).
type nbfebAdapter struct {
	empty map[uint32]int // word address -> acquiring core
	stats lrscwait.AdapterStats
}

// AdapterStats feeds System.PolicyStats like any built-in adapter.
func (a *nbfebAdapter) AdapterStats() lrscwait.AdapterStats { return a.stats }

// Handle appends the request's responses to out. The bank reuses out
// for its next request, so the adapter keeps neither slice.
func (a *nbfebAdapter) Handle(req lrscwait.Request, s lrscwait.Storage, out []lrscwait.Response) []lrscwait.Response {
	if resp, wrote, ok := lrscwait.HandleBasic(req, s); ok {
		if wrote {
			if _, held := a.empty[req.Addr]; held {
				delete(a.empty, req.Addr)
				a.stats.Invalidations++
			}
		}
		return append(out, resp)
	}
	if req.Op.IsWakeUp() {
		return out // no queues to wake
	}
	switch req.Op {
	case lrscwait.OpLR, lrscwait.OpLRWait:
		holder, held := a.empty[req.Addr]
		if !held || holder == req.Src {
			a.empty[req.Addr] = req.Src
			a.stats.Grants++
			return append(out, req.Reply(s.Read(req.Addr), true))
		}
		// Word empty (another core holds it): non-acquiring read. The
		// requester's SC will fail and software retries.
		a.stats.Refused++
		return append(out, req.Reply(s.Read(req.Addr), false))
	case lrscwait.OpSC, lrscwait.OpSCWait:
		if holder, held := a.empty[req.Addr]; held && holder == req.Src {
			s.Write(req.Addr, req.Data)
			delete(a.empty, req.Addr) // store-and-set-full
			a.stats.SCSuccess++
			return append(out, req.Reply(0, true))
		}
		a.stats.SCFail++
		return append(out, req.Reply(0, false))
	case lrscwait.OpMWait:
		// No monitor hardware: refuse, software falls back to polling.
		a.stats.Refused++
		return append(out, req.Reply(s.Read(req.Addr), false))
	}
	return append(out, req.Reply(0, false))
}

// incrementLoop builds an LR/SC increment kernel: add 1 to mem[addr]
// iters times, backing off on SC failure.
func incrementLoop(addr uint32, iters int, backoff int32) *lrscwait.Program {
	b := lrscwait.NewProgram()
	b.Li(lrscwait.A0, int32(addr))
	b.Li(lrscwait.T0, int32(iters))
	b.Li(lrscwait.T4, backoff)
	b.Label("retry")
	b.Lr(lrscwait.T2, lrscwait.A0)
	b.Addi(lrscwait.T2, lrscwait.T2, 1)
	b.Sc(lrscwait.T3, lrscwait.T2, lrscwait.A0)
	b.Beqz(lrscwait.T3, "ok")
	b.Pause(lrscwait.T4)
	b.J("retry")
	b.Label("ok")
	b.Mark()
	b.Addi(lrscwait.T0, lrscwait.T0, -1)
	b.Bnez(lrscwait.T0, "retry")
	b.Halt()
	return b.MustBuild()
}

// litmus checks NB-FEB's atomicity end to end: every core increments one
// fully contended counter through the new hardware; no update may be
// lost and the adapter must report a consistent SC ledger.
func litmus() {
	const iters = 20
	cfg := lrscwait.Config{Topo: lrscwait.SmallTopology(), Policy: "nbfeb"}
	sys := lrscwait.NewSystem(cfg, lrscwait.SameProgram(incrementLoop(0, iters, 16)))
	if !sys.RunUntilHalted(3_000_000) {
		log.Fatal("custompolicy: litmus did not halt (livelock?)")
	}
	n := cfg.Topo.NumCores()
	want := uint32(n * iters)
	if got := sys.ReadWord(0); got != want {
		log.Fatalf("custompolicy: counter = %d, want %d (lost updates!)", got, want)
	}
	st := sys.PolicyStats()
	if st.SCSuccess != uint64(n*iters) {
		log.Fatalf("custompolicy: SC successes = %d, want %d", st.SCSuccess, n*iters)
	}
	if st.Refused == 0 || st.SCFail == 0 {
		log.Fatalf("custompolicy: full contention produced no refusals/failures (%d/%d)",
			st.Refused, st.SCFail)
	}
	fmt.Printf("litmus: %d cores × %d increments exact; %d grants, %d refusals, %d/%d SC ok/fail\n\n",
		n, iters, st.Grants, st.Refused, st.SCSuccess, st.SCFail)
}

func main() {
	if err := lrscwait.RegisterPolicy(nbfebPolicy{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered policies: %v\n\n", lrscwait.PolicyNames())

	litmus()

	cacheDir, err := os.MkdirTemp("", "custompolicy-cache-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(cacheDir)
	cache, err := lrscwait.OpenSweepCache(cacheDir)
	if err != nil {
		log.Fatal(err)
	}
	runner := lrscwait.SweepRunner{Cache: cache}

	// The paper's Fig. 3 histogram study, re-run under the new hardware:
	// the policy grid axis replaces every curve's baked-in policy with
	// NB-FEB, plus the single-slot LRSC baseline for comparison — one
	// labelled series per (curve, policy). NB-FEB's adapter grants both
	// LR/SC and LRwait/SCwait, so every curve runs on it; the LRwait
	// curves under lrsc become "not run" notes. Nothing here implements
	// sweeping, caching or emitting.
	jobs := []lrscwait.SweepJob{{
		Kind: lrscwait.KindFig3, Topo: "small", Bins: []int{1, 4, 16},
		Warmup: 500, Measure: 2000,
		Grid: lrscwait.SweepGrid{Policies: []string{"nbfeb", string(lrscwait.PolicyLRSCSingle)}},
	}}
	results, stats, err := runner.RunAll(jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold run:  %s\n", stats.Summary())

	// A warm re-run is served entirely from the disk cache.
	if _, stats, err = runner.RunAll(jobs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm run:  %s\n\n", stats.Summary())

	fmt.Println(results[0].Table().String())
	j, err := results[0].JSON()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("JSON: %d bytes, deterministic — diff-able across runs\n\n", len(j))

	// The table1 scenario picks up the AreaRows hook: the NB-FEB tile
	// appears below the published configurations, no sweep code edited.
	area, _, err := runner.Run(lrscwait.SweepJob{Kind: lrscwait.KindTableI, Topo: "small"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(area.Table().String())
}
