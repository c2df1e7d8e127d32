package lrscwait_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	lrscwait "repro"
)

// The facade tests exercise the public API end to end, the way the
// examples and a downstream user would.

func TestFacadeAtomicCounter(t *testing.T) {
	cfg := lrscwait.Config{
		Topo:   lrscwait.SmallTopology(),
		Policy: lrscwait.PolicyColibri,
	}
	const iters = 50
	b := lrscwait.NewProgram()
	b.Li(lrscwait.A0, 0)
	b.Li(lrscwait.S0, iters)
	b.Label("loop")
	b.LrWait(lrscwait.T0, lrscwait.A0)
	b.Addi(lrscwait.T0, lrscwait.T0, 1)
	b.ScWait(lrscwait.T1, lrscwait.T0, lrscwait.A0)
	b.Bnez(lrscwait.T1, "loop")
	b.Mark()
	b.Addi(lrscwait.S0, lrscwait.S0, -1)
	b.Bnez(lrscwait.S0, "loop")
	b.Halt()

	sys := lrscwait.NewSystem(cfg, lrscwait.SameProgram(b.MustBuild()))
	if !sys.RunUntilHalted(5_000_000) {
		t.Fatal("did not halt")
	}
	n := cfg.Topo.NumCores()
	if got := sys.ReadWord(0); got != uint32(n*iters) {
		t.Errorf("counter = %d, want %d", got, n*iters)
	}
	act := sys.Snapshot()
	if act.SleepCycles == 0 {
		t.Error("no polling-free waiting recorded")
	}
}

func TestFacadeHistogramHelpers(t *testing.T) {
	cfg := lrscwait.Config{
		Topo:   lrscwait.SmallTopology(),
		Policy: lrscwait.PolicyColibri,
	}
	l := lrscwait.NewLayout(0)
	lay := lrscwait.NewHistLayout(l, 8, cfg.Topo.NumCores())
	prog := lrscwait.HistogramProgram(lrscwait.HistLRSCWait, lay, 128, 5)
	sys := lrscwait.NewSystem(cfg, lrscwait.SameProgram(prog))
	if !sys.RunUntilHalted(2_000_000) {
		t.Fatal("did not halt")
	}
	want := uint64(cfg.Topo.NumCores() * 5)
	if got := lrscwait.HistogramSum(sys, lay); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestFacadeDisassemble(t *testing.T) {
	b := lrscwait.NewProgram()
	b.Label("x")
	b.MWait(lrscwait.T0, lrscwait.Zero, lrscwait.A0)
	b.Halt()
	text := lrscwait.Disassemble(b.MustBuild())
	if !strings.Contains(text, "mwait") || !strings.Contains(text, "x:") {
		t.Errorf("disassembly missing content:\n%s", text)
	}
	// The run kind's default kernel, the LRwait/SCwait histogram,
	// reserves with lr.wait.
	lay := lrscwait.NewHistLayout(lrscwait.NewLayout(0), 16, 16)
	text = lrscwait.Disassemble(lrscwait.HistogramProgram(lrscwait.HistLRSCWait, lay, 128, 0))
	if !strings.Contains(text, "lr.wait") {
		t.Errorf("LRwait histogram disassembly has no lr.wait:\n%s", text)
	}
}

func TestFacadeTableI(t *testing.T) {
	rows := lrscwait.TableI(256)
	if len(rows) == 0 {
		t.Fatal("empty Table I")
	}
	base := rows[0].AreaKGE
	for _, r := range rows[1:] {
		if r.AreaKGE <= base {
			t.Errorf("%s %s: no overhead over the base tile", r.Design, r.Params)
		}
	}
}

func TestFacadeStandardBins(t *testing.T) {
	bins := lrscwait.StandardBins(lrscwait.MemPool256())
	if bins[0] != 1 || bins[len(bins)-1] != 1024 {
		t.Errorf("bins = %v", bins)
	}
}

func TestFacadeTopologies(t *testing.T) {
	if lrscwait.MemPool256().NumCores() != 256 ||
		lrscwait.MediumTopology().NumCores() != 64 ||
		lrscwait.SmallTopology().NumCores() != 16 {
		t.Error("topology core counts wrong")
	}
}

func TestFacadeGridSweep(t *testing.T) {
	job := lrscwait.SweepJob{Kind: lrscwait.KindFig3, Topo: "small",
		Bins: []int{1}, Warmup: 300, Measure: 1500}
	var err error
	if job.Grid, err = lrscwait.ParseSweepGrid("queuecap=0,1"); err != nil {
		t.Fatal(err)
	}
	results, st, err := lrscwait.RunSweeps(job)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if len(res.Series)%2 != 0 || len(res.Series) == 0 {
		t.Fatalf("series count %d not a multiple of the 2 grid points", len(res.Series))
	}
	// 12 series of one bin each, but 5 simulations: amoadd, colibri
	// and lrsc run policies that ignore queuecap, so each of their two
	// grid points is one simulation, and the three lrscwait curves run
	// one code whose policy the coordinate's queuecap settles.
	if want := 5; st.Units != want {
		t.Errorf("units = %d, want %d", st.Units, want)
	}
	for i, s := range res.Series {
		if s.Grid == nil || s.Grid.QueueCap == nil {
			t.Fatalf("series %d carries no grid coordinate", i)
		}
		want := "[queuecap=" + []string{"0", "1"}[i%2] + "]"
		if !strings.HasSuffix(s.Name, want) {
			t.Errorf("series %d name %q missing %q", i, s.Name, want)
		}
	}
}

// facadeScenario is a custom workload defined purely against the public
// facade, the way an out-of-tree user would: every core runs the
// LRwait/SCwait histogram kernel and the scenario sweeps the bin count,
// reporting throughput plus a custom sleep-cycles metric.
type facadeScenario struct{}

func (facadeScenario) Name() string { return "facade-counter" }
func (facadeScenario) Reads() lrscwait.SweepField {
	return lrscwait.FieldBins | lrscwait.FieldWindows
}

func (facadeScenario) Normalize(j lrscwait.SweepJob, topo lrscwait.Topology) (lrscwait.SweepJob, error) {
	if j.Warmup == 0 {
		j.Warmup = 200
	}
	if j.Measure == 0 {
		j.Measure = 800
	}
	if len(j.Bins) == 0 {
		j.Bins = []int{1, 4}
	}
	return j, nil
}

func (facadeScenario) Curves(topo lrscwait.Topology, j lrscwait.SweepJob) ([]lrscwait.ScenarioCurve, error) {
	return []lrscwait.ScenarioCurve{{
		Name: "facade-counter", NumPoints: len(j.Bins), Sim: true,
		Key: func(_ string, pt int) string {
			return fmt.Sprintf("bins%d", j.Bins[pt])
		},
		Run: func(_ lrscwait.PolicyConfig, pt int) lrscwait.SweepPoint {
			cfg := lrscwait.Config{Topo: topo, Policy: lrscwait.PolicyColibri}
			l := lrscwait.NewLayout(0)
			lay := lrscwait.NewHistLayout(l, j.Bins[pt], topo.NumCores())
			prog := lrscwait.HistogramProgram(lrscwait.HistLRSCWait, lay, 128, 0)
			sys := lrscwait.NewSystem(cfg, lrscwait.SameProgram(prog))
			act := sys.Measure(j.Warmup, j.Measure)
			p := lrscwait.SweepPoint{X: j.Bins[pt]}
			p.SetMetric(lrscwait.MetricThroughput, act.Throughput())
			p.SetMetric("sleep_cycles", float64(act.SleepCycles))
			return p
		},
	}}, nil
}

// TestFacadeCustomScenario is the open-API acceptance path: a scenario
// registered only through the public facade runs through the engine with
// caching (warm re-run executes zero simulations), appears in the
// registry listing, and round-trips through all three emitters.
func TestFacadeCustomScenario(t *testing.T) {
	// The registry is process-global: tolerate the duplicate error a
	// repeated in-process run (go test -count=2) produces.
	if err := lrscwait.RegisterScenario(facadeScenario{}); err != nil &&
		!strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	found := false
	for _, name := range lrscwait.Scenarios() {
		if name == "facade-counter" {
			found = true
		}
	}
	if !found {
		t.Fatalf("facade-counter missing from Scenarios() = %v", lrscwait.Scenarios())
	}
	if _, ok := lrscwait.LookupScenario("facade-counter"); !ok {
		t.Fatal("LookupScenario cannot find the registered scenario")
	}

	cache, err := lrscwait.OpenSweepCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := lrscwait.SweepJob{Kind: "facade-counter", Topo: "small"}
	r := lrscwait.SweepRunner{Workers: 2, Cache: cache}
	cold, st, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Units != 2 || st.Executed != 2 {
		t.Fatalf("cold run stats = %+v", st)
	}
	warm, st, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 0 || st.CacheHits != 2 {
		t.Fatalf("warm run stats = %+v (custom scenario not served from cache)", st)
	}

	coldJSON, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := warm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Error("warm-cache JSON differs from cold run")
	}
	if !strings.Contains(string(coldJSON), `"sleep_cycles"`) {
		t.Errorf("custom metric missing from JSON:\n%s", coldJSON)
	}
	if tbl := cold.Table().String(); !strings.Contains(tbl, "sleep_cycles") {
		t.Errorf("generic table missing the custom metric:\n%s", tbl)
	}
	if csv := cold.CSV(); csv == "" || !strings.Contains(csv, "throughput") {
		t.Errorf("CSV emitter broken for custom scenario:\n%s", csv)
	}
	if tp, ok := cold.Series[0].Points[0].Metric(lrscwait.MetricThroughput); !ok || tp <= 0 {
		t.Errorf("no throughput measured: %v, %v", tp, ok)
	}
}

func TestFacadeEnergyModel(t *testing.T) {
	p := lrscwait.DefaultEnergy()
	var a lrscwait.Activity
	a.BusyCycles = 100
	a.TotalOps = 10
	if p.PerOpPJ(a) <= 0 {
		t.Error("energy model returned nothing for busy work")
	}
}

// facadePolicy is a custom reservation policy defined purely against
// the public facade (a miniature of examples/custompolicy): per-word
// mutual exclusion through a full/empty bit, no internal imports.
type facadePolicy struct{}

func (facadePolicy) Name() string { return "facade-feb" }

func (p facadePolicy) Normalize(lrscwait.PolicyParams, lrscwait.Topology) (lrscwait.Policy, error) {
	return p, nil
}

func (facadePolicy) NewAdapter(lrscwait.BankContext) lrscwait.Adapter {
	return &facadeAdapter{empty: map[uint32]int{}}
}

type facadeAdapter struct {
	empty map[uint32]int
	stats lrscwait.AdapterStats
}

func (a *facadeAdapter) Name() string                        { return "facade-feb" }
func (a *facadeAdapter) AdapterStats() lrscwait.AdapterStats { return a.stats }

func (a *facadeAdapter) Handle(req lrscwait.Request, s lrscwait.Storage) []lrscwait.Response {
	if resp, wrote, ok := lrscwait.HandleBasic(req, s); ok {
		if wrote {
			delete(a.empty, req.Addr)
		}
		return []lrscwait.Response{resp}
	}
	if req.Op.IsWakeUp() {
		return nil // no queues to wake
	}
	switch req.Op {
	case lrscwait.OpLR, lrscwait.OpLRWait:
		holder, held := a.empty[req.Addr]
		granted := !held || holder == req.Src
		if granted {
			a.empty[req.Addr] = req.Src
			a.stats.Grants++
		} else {
			a.stats.Refused++
		}
		return []lrscwait.Response{req.Reply(s.Read(req.Addr), granted)}
	case lrscwait.OpSC, lrscwait.OpSCWait:
		if holder, held := a.empty[req.Addr]; held && holder == req.Src {
			s.Write(req.Addr, req.Data)
			delete(a.empty, req.Addr)
			a.stats.SCSuccess++
			return []lrscwait.Response{req.Reply(0, true)}
		}
		a.stats.SCFail++
		return []lrscwait.Response{req.Reply(0, false)}
	}
	a.stats.Refused++
	return []lrscwait.Response{req.Reply(s.Read(req.Addr), false)}
}

// TestFacadeCustomPolicy is the open Policy API acceptance path: a
// policy known only to the registry builds a system through the facade,
// keeps a fully contended LR/SC counter exact, reports its stats
// through PolicyStats, and is rejected on re-registration.
func TestFacadeCustomPolicy(t *testing.T) {
	// Tolerate repeated in-process runs (-count=2): the registry is
	// process-global with no unregister.
	if err := lrscwait.RegisterPolicy(facadePolicy{}); err != nil &&
		!strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
	if err := lrscwait.RegisterPolicy(facadePolicy{}); err == nil {
		t.Error("duplicate policy registration accepted")
	}
	found := false
	for _, name := range lrscwait.PolicyNames() {
		if name == "facade-feb" {
			found = true
		}
	}
	if !found {
		t.Fatalf("facade-feb missing from PolicyNames() = %v", lrscwait.PolicyNames())
	}
	if _, ok := lrscwait.LookupPolicy("facade-feb"); !ok {
		t.Fatal("LookupPolicy cannot find the registered policy")
	}
	// The policy ignores the built-in queues' parameters.
	if pol, err := lrscwait.ResolvePolicy("facade-feb",
		lrscwait.PolicyParams{QueueCap: 2}, lrscwait.SmallTopology()); err != nil || pol.Name() != "facade-feb" {
		t.Errorf("ResolvePolicy(facade-feb) = %v, %v", pol, err)
	}

	const iters = 10
	b := lrscwait.NewProgram()
	b.Li(lrscwait.A0, 0)
	b.Li(lrscwait.T0, iters)
	b.Li(lrscwait.T4, 16)
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
	prog := b.MustBuild()

	cfg := lrscwait.Config{Topo: lrscwait.SmallTopology(), Policy: "facade-feb"}
	sys := lrscwait.NewSystem(cfg, lrscwait.SameProgram(prog))
	if !sys.RunUntilHalted(3_000_000) {
		t.Fatal("custom-policy counter did not halt")
	}
	n := cfg.Topo.NumCores()
	if got := sys.ReadWord(0); got != uint32(n*iters) {
		t.Errorf("counter = %d, want %d (custom policy lost updates)", got, n*iters)
	}
	st := sys.PolicyStats()
	if st.SCSuccess != uint64(n*iters) {
		t.Errorf("PolicyStats SC successes = %d, want %d (StatsReporter not threaded)",
			st.SCSuccess, n*iters)
	}
	if st.Grants == 0 {
		t.Error("PolicyStats reports no grants")
	}
}
