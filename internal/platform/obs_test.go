package platform_test

// Tests of the kernel's observability wiring: the KernelStats the
// scheduler accumulates, the derived-skipped accounting invariants, and
// PublishObs's delta-exact publishing into an obs.Registry. The one
// property everything here defends: instrumentation is observation-only
// — publishing (or not publishing) never changes simulation results.

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/platform"
)

// TestKernelStatsInvariants runs a contended wait-capable workload and
// checks the accounting identities the derived-skipped convention rests
// on: every simulated cycle is either ticked or fast-forwarded, and no
// phase ever ticks more components than exist.
func TestKernelStatsInvariants(t *testing.T) {
	const n = 5000
	progFor := parityPrograms(platform.PolicyColibri, noc.Small(), 8)
	sys := platform.New(platform.SmallConfig(platform.PolicyColibri), progFor)
	sys.Run(n)

	k := sys.Kernel
	if k.Ticks == 0 {
		t.Fatal("no ticks recorded")
	}
	if got := k.Ticks + k.FFCyclesSaved; got != n {
		t.Errorf("Ticks+FFCyclesSaved = %d+%d = %d, want window %d",
			k.Ticks, k.FFCyclesSaved, got, n)
	}
	cores := uint64(len(sys.Cores))
	if k.SlotsTicked > k.Ticks*cores {
		t.Errorf("SlotsTicked %d exceeds Ticks*cores %d", k.SlotsTicked, k.Ticks*cores)
	}
	banks := uint64(len(sys.Banks))
	if k.BanksTicked > k.Ticks*banks {
		t.Errorf("BanksTicked %d exceeds Ticks*banks %d", k.BanksTicked, k.Ticks*banks)
	}
	routers := uint64(sys.Fabric.NumRouters())
	if k.RoutersTicked > k.Ticks*routers {
		t.Errorf("RoutersTicked %d exceeds Ticks*routers %d", k.RoutersTicked, k.Ticks*routers)
	}
	if k.FFSpans == 0 || k.FFCyclesSaved == 0 {
		t.Errorf("finite workload on a %d-cycle window should fast-forward (spans=%d saved=%d)",
			n, k.FFSpans, k.FFCyclesSaved)
	}
	if k.Parks == 0 {
		t.Error("contended wait-capable workload recorded no core parks")
	}

	// Every published name matches its source, on this run and on an
	// LRSC hot spot whose reservations are refused; between them every
	// name must be checked non-zero once. No small workload backs a
	// bank's response port up, so one bank's stall counter is set by
	// hand to check its path from the bank to the registry.
	seen := map[string]bool{}
	requirePublishedFromSources(t, sys, seen)
	hot := kernels.NewHistLayout(platform.NewLayout(0), 1, noc.Small().NumCores())
	lrsc := platform.New(platform.SmallConfig(platform.PolicyLRSCSingle),
		platform.SameProgram(kernels.HistogramProgram(kernels.HistLRSC, hot, 32, 1<<20)))
	lrsc.Run(3000)
	lrsc.Banks[1].Stats.StallCycles = 7
	requirePublishedFromSources(t, lrsc, seen)
	for _, name := range sys.PublishedNames() {
		if name = strings.Replace(name, sys.Policy.Name(), "<policy>", 1); !seen[name] {
			t.Errorf("%s was zero on every run; no run checks its source", name)
		}
	}
}

// requirePublishedFromSources publishes sys into a fresh registry and
// compares every publish-table name with the counter it is read from,
// skipped counts derived as Ticks×population − ticked. A zero source
// must read as an absent name: zero deltas are elided. Names checked
// non-zero are added to seen, with the policy name as "<policy>".
func requirePublishedFromSources(t *testing.T, sys *platform.System, seen map[string]bool) {
	t.Helper()
	reg := obs.NewRegistry()
	sys.PublishObs(reg)
	k, s, ps := sys.Kernel, sys.Snapshot(), sys.PolicyStats()
	cores, banks := uint64(len(sys.Cores)), uint64(len(sys.Banks))
	routers := uint64(sys.Fabric.NumRouters())
	pushes, pops := sys.WakeHeapOps()
	var stalls uint64
	for _, b := range sys.Banks {
		stalls += b.Stats.StallCycles
	}
	pre := "kernel.policy." + sys.Policy.Name() + "."
	want := map[string]uint64{
		"kernel.ticks":             k.Ticks,
		"kernel.slots.ticked":      k.SlotsTicked,
		"kernel.slots.skipped":     k.Ticks*cores - k.SlotsTicked,
		"kernel.routers.ticked":    k.RoutersTicked,
		"kernel.routers.skipped":   k.Ticks*routers - k.RoutersTicked,
		"kernel.banks.ticked":      k.BanksTicked,
		"kernel.banks.skipped":     k.Ticks*banks - k.BanksTicked,
		"kernel.deliv.ticked":      k.DelivTicked,
		"kernel.cores.parked":      k.Parks,
		"kernel.ff.spans":          k.FFSpans,
		"kernel.ff.cycles_saved":   k.FFCyclesSaved,
		"kernel.wakeheap.push":     pushes,
		"kernel.wakeheap.pop":      pops,
		"kernel.core.deliveries":   s.Deliveries,
		"kernel.fabric.flits":      s.Flits,
		"kernel.bank.accesses":     s.BankAccesses,
		"kernel.bank.writes":       s.BankWrites,
		"kernel.bank.responses":    s.BankResponses,
		"kernel.bank.stall_cycles": stalls,
		pre + "requests":           s.BankAccesses,
		pre + "grants":             ps.Grants,
		pre + "nacks":              ps.Refused,
		pre + "sc_success":         ps.SCSuccess,
		pre + "sc_fail":            ps.SCFail,
		pre + "invalidations":      ps.Invalidations,
	}
	m := reg.Snapshot()
	names := sys.PublishedNames()
	if len(names) != len(want) {
		t.Errorf("publish table has %d names, this test checks %d: %v", len(names), len(want), names)
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("published name %q has no source check here", name)
			continue
		}
		got, published := m.Counters[name]
		switch {
		case w == 0 && published:
			t.Errorf("%s published %d from a zero source", name, got)
		case got != w:
			t.Errorf("%s = %d, want %d", name, got, w)
		case w != 0:
			seen[strings.Replace(name, sys.Policy.Name(), "<policy>", 1)] = true
		}
	}
}

// TestPublishObsDeltaExact checks the publish-delta contract: repeated
// publishes add only the activity since the previous publish, so chunked
// publishing lands on exactly the same cumulative registry state as one
// final publish — and a publish with no intervening activity adds
// nothing.
func TestPublishObsDeltaExact(t *testing.T) {
	build := func() *platform.System {
		progFor := parityPrograms(platform.PolicyWaitQueue, noc.Small(), 8)
		return platform.New(platform.SmallConfig(platform.PolicyWaitQueue), progFor)
	}

	chunked, whole := build(), build()
	regChunked, regWhole := obs.NewRegistry(), obs.NewRegistry()
	for i := 0; i < 5; i++ {
		chunked.Run(700)
		chunked.PublishObs(regChunked)
		whole.Run(700)
	}
	whole.PublishObs(regWhole)
	if a, b := regChunked.Snapshot(), regWhole.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("chunked publishes diverge from one-shot publish:\nchunked: %+v\nwhole:   %+v", a, b)
	}

	// Idempotence: no activity between publishes, no change.
	before := regChunked.Snapshot()
	chunked.PublishObs(regChunked)
	if after := regChunked.Snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("publish without activity changed the registry:\nbefore: %+v\nafter:  %+v", before, after)
	}
}

// TestPublishObsObservationOnly is the parity guarantee for the
// instrumentation itself: interleaving PublishObs calls with execution
// must not perturb simulation state — same clock, same Activity, same
// memory as an unpublished twin.
func TestPublishObsObservationOnly(t *testing.T) {
	progFor := parityPrograms(platform.PolicyColibri, noc.Small(), 8)
	cfg := platform.SmallConfig(platform.PolicyColibri)
	published, plain := platform.New(cfg, progFor), platform.New(cfg, progFor)

	reg := obs.NewRegistry()
	for i := 0; i < 6; i++ {
		published.Run(500)
		published.PublishObs(reg)
		plain.Run(500)
	}
	if published.Clock.Now() != plain.Clock.Now() {
		t.Fatalf("clock diverged: published=%d plain=%d", published.Clock.Now(), plain.Clock.Now())
	}
	requireSameActivity(t, int(plain.Clock.Now()), plain.Snapshot(), published.Snapshot())
	for w := uint32(0); w < 16; w++ {
		if pv, qv := published.ReadWord(4*w), plain.ReadWord(4*w); pv != qv {
			t.Fatalf("word %d: published=%d plain=%d", w, pv, qv)
		}
	}
}

// TestPublishObsConcurrent covers PublishObs's concurrency contract: two
// goroutines publishing one paused System into one registry, many times
// over, count every delta exactly once, so the registry ends equal to a
// single publish of an identical twin. Run it under -race.
func TestPublishObsConcurrent(t *testing.T) {
	build := func() *platform.System {
		progFor := parityPrograms(platform.PolicyColibri, noc.Small(), 8)
		sys := platform.New(platform.SmallConfig(platform.PolicyColibri), progFor)
		sys.Run(2000)
		return sys
	}
	shared, twin := build(), build()
	reg, regTwin := obs.NewRegistry(), obs.NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				shared.PublishObs(reg)
			}
		}()
	}
	wg.Wait()
	twin.PublishObs(regTwin)
	if a, b := reg.Snapshot(), regTwin.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("concurrent publishes diverge from one publish of a twin:\nconcurrent: %+v\ntwin:       %+v", a, b)
	}
	if len(regTwin.Snapshot().Counters) == 0 {
		t.Error("twin published nothing; the comparison is vacuous")
	}
}
