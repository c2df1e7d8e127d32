package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/area"
	"repro/internal/energy"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/platform"
)

// The experiment tests run reduced topologies and check the qualitative
// shape the paper reports; the paper-scale numbers come from
// `sweep -all -topo mempool`, and the published values they are compared
// with are in bench/testdata/reference.json.

func TestFig3ShapeSmall(t *testing.T) {
	topo := noc.Small()
	specs := Fig3Specs(topo.NumCores())
	byName := map[string]HistPoint{}
	for _, spec := range specs {
		byName[spec.Name] = RunHistogramPoint(spec, topo, 1, 1000, 4000)
	}
	amo := byName["amoadd"]
	colibri := byName["colibri"]
	ideal := byName["lrscwait-ideal"]
	one := byName["lrscwait-1"]
	lrsc := byName["lrsc"]

	if amo.Throughput <= 0 || colibri.Throughput <= 0 || lrsc.Throughput <= 0 {
		t.Fatalf("zero throughput: amo=%v colibri=%v lrsc=%v",
			amo.Throughput, colibri.Throughput, lrsc.Throughput)
	}
	// AMO add is the roofline at full contention.
	if amo.Throughput < colibri.Throughput {
		t.Errorf("roofline violated: amoadd %.4f < colibri %.4f",
			amo.Throughput, colibri.Throughput)
	}
	// Colibri tracks the ideal queue closely (paper: near-ideal).
	if colibri.Throughput < 0.5*ideal.Throughput {
		t.Errorf("colibri %.4f far below ideal %.4f", colibri.Throughput, ideal.Throughput)
	}
	// A single-slot queue degenerates to polling under full contention:
	// it must refuse reservations and lose to the ideal queue.
	if one.Activity.WaitRefusals == 0 {
		t.Error("lrscwait-1 saw no refusals at full contention")
	}
	if one.Throughput > ideal.Throughput {
		t.Errorf("lrscwait-1 %.4f beats ideal %.4f", one.Throughput, ideal.Throughput)
	}
	// LRSC retries: SC failures must appear at full contention; the wait
	// queue has none.
	if lrsc.Activity.SCFail == 0 {
		t.Error("LRSC at bins=1 saw no SC failures")
	}
	if ideal.Activity.SCFail != 0 {
		t.Errorf("ideal queue saw %d SC failures", ideal.Activity.SCFail)
	}
	// Colibri outperforms LRSC under full contention.
	if colibri.Throughput <= lrsc.Throughput {
		t.Errorf("colibri %.4f not above lrsc %.4f at bins=1",
			colibri.Throughput, lrsc.Throughput)
	}
	// Colibri waiters sleep; LRSC pollers burn active/backoff cycles.
	if colibri.Activity.SleepCycles == 0 {
		t.Error("colibri recorded no sleep cycles")
	}
	if lrsc.Activity.PauseCycles == 0 {
		t.Error("lrsc recorded no backoff cycles")
	}
}

func TestFig3LowContentionConvergence(t *testing.T) {
	topo := noc.Small()
	bins := topo.NumBanks() // one bin per bank: minimal contention
	colibri := RunHistogramPoint(HistSpec{Name: "colibri", Variant: kernels.HistLRSCWait,
		Policy: Policy{Kind: platform.PolicyColibri}}, topo, bins, 1000, 4000)
	lrsc := RunHistogramPoint(HistSpec{Name: "lrsc", Variant: kernels.HistLRSC,
		Policy: Policy{Kind: platform.PolicyLRSCSingle}}, topo, bins, 1000, 4000)
	// At low contention the two converge (paper: Colibri +13%); allow a
	// generous band but require the same order of magnitude.
	if colibri.Throughput < 0.6*lrsc.Throughput {
		t.Errorf("low contention: colibri %.4f << lrsc %.4f",
			colibri.Throughput, lrsc.Throughput)
	}
}

func TestFig4LockShape(t *testing.T) {
	topo := noc.Small()
	byName := map[string]HistPoint{}
	for _, spec := range Fig4Specs() {
		byName[spec.Name] = RunHistogramPoint(spec, topo, 1, 1000, 4000)
	}
	colibri := byName["colibri"]
	for name, p := range byName {
		if p.Throughput <= 0 {
			t.Fatalf("%s made no progress", name)
		}
		// Paper: raw Colibri beats every lock at any contention.
		if name != "colibri" && p.Throughput > 1.3*colibri.Throughput {
			t.Errorf("%s (%.4f) clearly beats colibri (%.4f) at bins=1",
				name, p.Throughput, colibri.Throughput)
		}
	}
	// The Mwait MCS lock must actually sleep.
	if byName["mwait-lock"].Activity.SleepCycles == 0 {
		t.Error("mwait-lock recorded no sleep cycles")
	}
}

func TestFig5InterferenceShape(t *testing.T) {
	// Interference needs oversubscription of the hot tile, so this test
	// runs the quarter-scale MemPool (62 pollers : 2 workers).
	topo := noc.Medium()
	n := topo.NumCores()
	ratio := InterferenceRatio{Pollers: n - 2, Workers: 2}
	// Backoff 0 disables the retry backoff: at 1/4 scale the poller
	// population is too small to saturate the hot tile through a
	// 128-cycle backoff (the full-scale fig5 sweep keeps the paper's
	// 128).
	base := RunInterferenceBaseline(topo, ratio, 1, 16, 2000, 10000)
	colibriRel, _ := RunInterferencePoint(HistSpec{Name: "colibri", Variant: kernels.HistLRSCWait,
		Policy: Policy{Kind: platform.PolicyColibri, Backoff: 0}},
		topo, ratio, 1, 16, 2000, 10000, base)
	lrscRel, _ := RunInterferencePoint(HistSpec{Name: "lrsc", Variant: kernels.HistLRSC,
		Policy: Policy{Kind: platform.PolicyLRSCSingle, Backoff: 0}},
		topo, ratio, 1, 16, 2000, 10000, base)

	if base <= 0 {
		t.Fatalf("workers idle in baseline: %v marks/cycle", base)
	}
	// Colibri pollers sleep: negligible worker impact.
	if colibriRel < 0.85 {
		t.Errorf("colibri interference too strong: rel=%.3f", colibriRel)
	}
	// LRSC pollers retry: workers must be hurt, and hurt more than under
	// Colibri (the paper's central interference claim).
	if lrscRel >= 0.95 {
		t.Errorf("lrsc pollers caused no measurable interference: rel=%.3f", lrscRel)
	}
	if lrscRel >= colibriRel {
		t.Errorf("lrsc rel %.3f not below colibri rel %.3f", lrscRel, colibriRel)
	}
}

// TestInterferenceFitsAtTheMemoryEdge checks InterferenceFits against the
// memory itself: on small, the largest matrix it accepts (and the most
// bins beside the default one) lays out and runs, and one more row (or
// bin) panics when the system writes its matrices.
func TestInterferenceFitsAtTheMemoryEdge(t *testing.T) {
	topo := noc.Small()
	ratio := PaperRatios(topo.NumCores())[0]
	largest := func(fits func(n int) bool) int {
		n := 1
		for fits(n + 1) {
			n++
		}
		return n
	}
	build := func(bins, matN int) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		RunInterferenceBaseline(topo, ratio, bins, matN, 1, 1)
		return false
	}
	matN := largest(func(n int) bool { return InterferenceFits(topo, 1, n) })
	bins := largest(func(n int) bool { return InterferenceFits(topo, n, 128) })
	for _, c := range []struct{ bins, matN int }{{1, matN}, {bins, 128}} {
		if build(c.bins, c.matN) {
			t.Errorf("bins=%d matn=%d fits, but building it panicked", c.bins, c.matN)
		}
	}
	for _, c := range []struct{ bins, matN int }{{1, matN + 1}, {bins + 1, 128}} {
		if !build(c.bins, c.matN) {
			t.Errorf("bins=%d matn=%d does not fit, but it built", c.bins, c.matN)
		}
	}
}

func TestFig6QueueShape(t *testing.T) {
	topo := noc.Small()
	n := topo.NumCores()
	var colibriTP, lrscTP float64
	for _, spec := range Fig6Specs() {
		p := RunQueuePoint(spec, topo, n, 2000, 6000)
		if p.Throughput <= 0 {
			t.Fatalf("%s: no queue throughput", spec.Name)
		}
		if p.MinPerCore > p.MaxPerCore {
			t.Fatalf("%s: fairness band inverted", spec.Name)
		}
		switch spec.Name {
		case "colibri":
			colibriTP = p.Throughput
		case "lrsc":
			lrscTP = p.Throughput
		}
	}
	if colibriTP <= lrscTP {
		t.Errorf("colibri queue %.4f not above lrsc %.4f at full contention",
			colibriTP, lrscTP)
	}
}

func TestFig6SingleCore(t *testing.T) {
	topo := noc.Small()
	for _, spec := range Fig6Specs() {
		p := RunQueuePoint(spec, topo, 1, 500, 3000)
		if p.Throughput <= 0 {
			t.Errorf("%s: single core made no progress", spec.Name)
		}
		if math.Abs(p.MinPerCore-p.MaxPerCore) > 1e-9 {
			t.Errorf("%s: single-core fairness band should be empty", spec.Name)
		}
	}
}

func TestTableIIOrdering(t *testing.T) {
	// The paper's ordering: AmoAdd < Colibri < LRSC <= AmoAdd lock,
	// measured per row from the bins=1 histogram activity counters (the
	// same formula the table2 sweep scenario assembles; the full-table
	// ordering incl. deltas is pinned in internal/sweep).
	params := energy.Default()
	byName := map[string]float64{}
	for _, spec := range TableIISpecs() {
		p := RunHistogramPoint(spec, noc.Small(), 1, 1000, 4000)
		pj := params.PerOpPJ(p.Activity)
		if pj <= 0 {
			t.Fatalf("%s: no energy measured", spec.Name)
		}
		byName[spec.Name] = pj
	}
	if !(byName["amoadd"] < byName["colibri"]) {
		t.Errorf("amoadd (%.1f pJ) not below colibri (%.1f pJ)",
			byName["amoadd"], byName["colibri"])
	}
	if !(byName["colibri"] < byName["lrsc"]) {
		t.Errorf("colibri (%.1f pJ) not below lrsc (%.1f pJ)",
			byName["colibri"], byName["lrsc"])
	}
	if !(byName["colibri"] < byName["amoadd-lock"]) {
		t.Errorf("colibri (%.1f pJ) not below amoadd-lock (%.1f pJ)",
			byName["colibri"], byName["amoadd-lock"])
	}
}

func TestTableIIPaperRef(t *testing.T) {
	if ref := TableIIPaperRef("lrsc"); ref.Backoff != 128 || ref.PJ != 884 {
		t.Errorf("lrsc ref = %+v", ref)
	}
	if ref := TableIIPaperRef("nonesuch"); ref != (TableIIRef{}) {
		t.Errorf("unknown name ref = %+v", ref)
	}
}

func TestTableIModelFit(t *testing.T) {
	rows := area.TableI(area.Default(), 256)
	for _, r := range rows {
		if r.PaperKGE == 0 {
			continue // extrapolation rows have no reference
		}
		err := math.Abs(r.AreaKGE-r.PaperKGE) / r.PaperKGE
		if err > 0.02 {
			t.Errorf("%s %s: model %.1f kGE vs paper %.1f kGE (%.1f%% off)",
				r.Design, r.Params, r.AreaKGE, r.PaperKGE, err*100)
		}
	}
	// The ideal queue extrapolation must show the infeasibility the paper
	// argues: several times the tile area.
	m := area.Default()
	if m.TileWithWaitQueue(256) < 2*m.Tile() {
		t.Error("ideal-queue area does not show quadratic blowup")
	}
}

// TestPolicyBackoffResolution pins the one backoff encoding: Backoff is
// literal cycles (0 = none) and keys as such, and every paper spec runs
// under PaperPolicy's 128 cycles.
func TestPolicyBackoffResolution(t *testing.T) {
	for _, c := range []struct {
		pol  Policy
		want string
	}{
		{Policy{Kind: platform.PolicyLRSCSingle}, "p=lrsc|q0|cq4|bo0"},
		{Policy{Kind: platform.PolicyLRSCSingle, Backoff: 64}, "p=lrsc|q0|cq4|bo64"},
		{PaperPolicy(platform.PolicyLRSCSingle), "p=lrsc|q0|cq4|bo128"},
	} {
		if got := c.pol.KeyFragment(noc.Small()); got != c.want {
			t.Errorf("%+v keys as %q, want %q", c.pol, got, c.want)
		}
	}
	var specs []HistSpec
	specs = append(specs, Fig3Specs(256)...)
	specs = append(specs, Fig4Specs()...)
	specs = append(specs, TableIISpecs()...)
	for _, c := range Fig5Curves(256) {
		specs = append(specs, c.Spec)
	}
	for _, s := range specs {
		if s.Policy.Backoff != DefaultBackoff {
			t.Errorf("histogram spec %s backoff = %d, want %d", s.Name, s.Policy.Backoff, DefaultBackoff)
		}
	}
	for _, s := range append(Fig6Specs(), Fig6MSSpecs()...) {
		if s.Policy.Backoff != DefaultBackoff {
			t.Errorf("queue spec %s backoff = %d, want %d", s.Name, s.Policy.Backoff, DefaultBackoff)
		}
	}
}

func TestPolicyConfigAssembly(t *testing.T) {
	topo := noc.Small()
	params := platform.PolicyParams{QueueCap: 3, ColibriQueues: 2}
	cfg := Policy{Kind: platform.PolicyWaitQueue, PolicyParams: params}.Config(topo)
	if cfg.Policy != platform.PolicyWaitQueue || cfg.PolicyParams != params ||
		cfg.Topo.NumCores() != topo.NumCores() {
		t.Errorf("assembled config = %+v", cfg)
	}
}

// keyRulePolicy is a policy registered by TestKeyFragmentAxisRule: it
// reads QueueCap when readsQ is set and no parameter otherwise.
type keyRulePolicy struct {
	name   string
	readsQ bool
	q      int
}

func (p keyRulePolicy) Name() string { return p.name }
func (p keyRulePolicy) Normalize(params platform.PolicyParams, _ noc.Topology) (platform.Policy, error) {
	if p.readsQ {
		p.q = params.QueueCap
	}
	return p, nil
}
func (keyRulePolicy) NewAdapter(platform.BankContext) mem.Adapter { return mem.PlainAdapter{} }

// TestKeyFragmentAxisRule pins KeyFragment's rule over the whole
// registry: a parameter keys at its value only under a policy that
// reads it, and a value the policy refuses keys literally, so it never
// collapses onto the default's entry.
func TestKeyFragmentAxisRule(t *testing.T) {
	// Tolerate repeated in-process runs (-count=2): the registry is
	// process-global with no unregister.
	for _, p := range []keyRulePolicy{{name: "keyrule-q", readsQ: true}, {name: "keyrule-none"}} {
		if err := platform.RegisterPolicy(p); err != nil && !strings.Contains(err.Error(), "already registered") {
			t.Fatal(err)
		}
	}
	topo := noc.Small()
	key := func(kind string, params platform.PolicyParams) string {
		return Policy{Kind: platform.PolicyKind(kind), PolicyParams: params}.KeyFragment(topo)
	}
	readsQ := map[string]bool{string(platform.PolicyWaitQueue): true, "keyrule-q": true, capMinusTwoName: true}
	for _, kind := range platform.PolicyNames() {
		wantQ, wantCQ := "p="+kind+"|q0|cq4|bo0", "p="+kind+"|q0|cq4|bo0"
		if readsQ[kind] {
			wantQ = "p=" + kind + "|q3|cq4|bo0"
		}
		if kind == string(platform.PolicyColibri) {
			wantCQ = "p=" + kind + "|q0|cq2|bo0"
		}
		if got := key(kind, platform.PolicyParams{QueueCap: 3}); got != wantQ {
			t.Errorf("%s with QueueCap 3 keys as %q, want %q", kind, got, wantQ)
		}
		if got := key(kind, platform.PolicyParams{ColibriQueues: 2}); got != wantCQ {
			t.Errorf("%s with ColibriQueues 2 keys as %q, want %q", kind, got, wantCQ)
		}
	}
	for _, c := range []struct {
		kind   platform.PolicyKind
		params platform.PolicyParams
		want   string
	}{
		{platform.PolicyWaitQueue, platform.PolicyParams{QueueCap: -1}, "p=lrscwait|q-1|cq4|bo0"},
		{platform.PolicyColibri, platform.PolicyParams{ColibriQueues: -2}, "p=colibri|q0|cq-2|bo0"},
	} {
		if got := key(string(c.kind), c.params); got != c.want {
			t.Errorf("%s with %+v keys as %q, want %q", c.kind, c.params, got, c.want)
		}
	}
}

// TestPolicyOverrideMatchesBakedSpec pins the override path to the
// baked-spec path: running the ideal-queue spec with its Policy's
// QueueCap set to 1 must reproduce the lrscwait-1 spec exactly (the
// simulator sees the same platform.Config either way).
func TestPolicyOverrideMatchesBakedSpec(t *testing.T) {
	topo := noc.Small()
	specs := map[string]HistSpec{}
	for _, s := range Fig3Specs(topo.NumCores()) {
		specs[s.Name] = s
	}
	ideal, one := specs["lrscwait-ideal"], specs["lrscwait-1"]
	ideal.Policy.QueueCap = 1
	got := RunHistogramPoint(ideal, topo, 1, 500, 2000)
	want := RunHistogramPoint(one, topo, 1, 500, 2000)
	if got.Throughput != want.Throughput {
		t.Errorf("override run %v != baked-spec run %v", got.Throughput, want.Throughput)
	}
}

func TestStandardBins(t *testing.T) {
	bins := StandardBins(noc.MemPool256())
	if len(bins) != 11 || bins[0] != 1 || bins[len(bins)-1] != 1024 {
		t.Errorf("MemPool bins = %v", bins)
	}
	small := StandardBins(noc.Small())
	if small[len(small)-1] > noc.Small().NumBanks() {
		t.Errorf("bins exceed bank count: %v", small)
	}
}
