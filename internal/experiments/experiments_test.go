package experiments

import (
	"math"
	"testing"

	"repro/internal/area"
	"repro/internal/energy"
	"repro/internal/kernels"
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
		Policy: platform.PolicyColibri}, topo, bins, 1000, 4000)
	lrsc := RunHistogramPoint(HistSpec{Name: "lrsc", Variant: kernels.HistLRSC,
		Policy: platform.PolicyLRSCSingle}, topo, bins, 1000, 4000)
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
	// Backoff < 0 disables the retry backoff: at 1/4 scale the poller
	// population is too small to saturate the hot tile through a
	// 128-cycle backoff (the full-scale fig5 sweep keeps the paper's
	// 128).
	colibri := RunInterferencePoint(HistSpec{Name: "colibri", Backoff: -1,
		Variant: kernels.HistLRSCWait, Policy: platform.PolicyColibri},
		topo, ratio, 1, 16, 2000, 10000)
	lrsc := RunInterferencePoint(HistSpec{Name: "lrsc", Backoff: -1,
		Variant: kernels.HistLRSC, Policy: platform.PolicyLRSCSingle},
		topo, ratio, 1, 16, 2000, 10000)

	if colibri.BaselineOps <= 0 || lrsc.BaselineOps <= 0 {
		t.Fatalf("workers idle in baseline: colibri=%+v lrsc=%+v", colibri, lrsc)
	}
	// Colibri pollers sleep: negligible worker impact.
	if colibri.Rel < 0.85 {
		t.Errorf("colibri interference too strong: rel=%.3f", colibri.Rel)
	}
	// LRSC pollers retry: workers must be hurt, and hurt more than under
	// Colibri (the paper's central interference claim).
	if lrsc.Rel >= 0.95 {
		t.Errorf("lrsc pollers caused no measurable interference: rel=%.3f", lrsc.Rel)
	}
	if lrsc.Rel >= colibri.Rel {
		t.Errorf("lrsc rel %.3f not below colibri rel %.3f", lrsc.Rel, colibri.Rel)
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

func TestPolicyBackoffResolution(t *testing.T) {
	if got := (Policy{}).ResolveBackoff(); got != DefaultBackoff {
		t.Errorf("zero backoff resolved to %d, want default %d", got, DefaultBackoff)
	}
	if got := (Policy{Backoff: -1}).ResolveBackoff(); got != 0 {
		t.Errorf("negative backoff resolved to %d, want 0", got)
	}
	if got := (Policy{Backoff: 64}).ResolveBackoff(); got != 64 {
		t.Errorf("explicit backoff resolved to %d, want 64", got)
	}
	if LiteralBackoff(0) >= 0 {
		t.Error("literal 0 cycles not encoded as the no-backoff sentinel")
	}
	if LiteralBackoff(64) != 64 {
		t.Errorf("LiteralBackoff(64) = %d", LiteralBackoff(64))
	}
}

func TestPolicyConfigAssembly(t *testing.T) {
	topo := noc.Small()
	cfg := Policy{Kind: platform.PolicyWaitQueue, QueueCap: 3, ColibriQueues: 2}.Config(topo)
	if cfg.Policy != platform.PolicyWaitQueue ||
		cfg.PolicyParams[platform.ParamQueueCap] != "3" ||
		cfg.PolicyParams[platform.ParamColibriQ] != "2" ||
		cfg.Topo.NumCores() != topo.NumCores() {
		t.Errorf("assembled config = %+v", cfg)
	}
	// Defaulted parameter axes stay absent, so the platform resolves its
	// own defaults (and a defaulted Policy maps to nil parameters).
	if got := (Policy{Kind: platform.PolicyColibri}).Config(topo); got.PolicyParams != nil {
		t.Errorf("defaulted policy params = %+v, want nil", got.PolicyParams)
	}
	spec := HistSpec{Policy: platform.PolicyWaitQueue, QueueCap: 5, ColibriQueues: 6, Backoff: -1}
	want := Policy{Kind: platform.PolicyWaitQueue, QueueCap: 5, ColibriQueues: 6, Backoff: -1}
	if got := spec.PolicyConfig(); got != want {
		t.Errorf("HistSpec.PolicyConfig = %+v", got)
	}
	if got := (QueueSpec{Policy: platform.PolicyPlain}).PolicyConfig(); got != (Policy{Kind: platform.PolicyPlain}) {
		t.Errorf("QueueSpec.PolicyConfig = %+v (want all-defaults)", got)
	}
	// A queue spec's baked-in policy fields must thread through, exactly
	// like HistSpec's (they used to be silently dropped).
	qspec := QueueSpec{Policy: platform.PolicyColibri, QueueCap: 3, ColibriQueues: 2, Backoff: -1}
	qwant := Policy{Kind: platform.PolicyColibri, QueueCap: 3, ColibriQueues: 2, Backoff: -1}
	if got := qspec.PolicyConfig(); got != qwant {
		t.Errorf("QueueSpec.PolicyConfig = %+v (spec fields dropped)", got)
	}
}

// TestPolicyOverrideMatchesBakedSpec pins the override path to the
// baked-spec path: running the ideal-queue spec with an explicit
// QueueCap=1 policy must reproduce the lrscwait-1 spec exactly (the
// simulator sees the same platform.Config either way).
func TestPolicyOverrideMatchesBakedSpec(t *testing.T) {
	topo := noc.Small()
	specs := map[string]HistSpec{}
	for _, s := range Fig3Specs(topo.NumCores()) {
		specs[s.Name] = s
	}
	ideal, one := specs["lrscwait-ideal"], specs["lrscwait-1"]
	pol := ideal.PolicyConfig()
	pol.QueueCap = 1
	got := RunHistogramPointPolicy(ideal, pol, topo, 1, 500, 2000)
	want := RunHistogramPoint(one, topo, 1, 500, 2000)
	if got.Throughput != want.Throughput {
		t.Errorf("override run %v != baked-spec run %v", got.Throughput, want.Throughput)
	}
}

// TestRunnerPolicyParity checks the Policy-threaded runners degrade to
// the historical entry points when handed the spec's own baseline.
func TestRunnerPolicyParity(t *testing.T) {
	topo := noc.Small()
	hist := Fig3Specs(topo.NumCores())[0]
	hp := RunHistogramPoint(hist, topo, 2, 500, 2000)
	hpp := RunHistogramPointPolicy(hist, hist.PolicyConfig(), topo, 2, 500, 2000)
	if hp.Throughput != hpp.Throughput {
		t.Errorf("histogram: %v != %v", hp.Throughput, hpp.Throughput)
	}

	q := Fig6Specs()[0]
	qp := RunQueuePoint(q, topo, 4, 500, 2000)
	qpp := RunQueuePointPolicy(q, q.PolicyConfig(), topo, 4, 500, 2000)
	if qp != qpp {
		t.Errorf("queue: %+v != %+v", qp, qpp)
	}

	ratio := InterferenceRatio{Pollers: 14, Workers: 2}
	spec := HistSpec{Name: "lrsc", Variant: kernels.HistLRSC, Policy: platform.PolicyLRSCSingle}
	ip := RunInterferencePoint(spec, topo, ratio, 1, 16, 500, 2000)
	ipp := RunInterferencePointPolicy(spec, spec.PolicyConfig(), topo, ratio, 1, 16, 500, 2000)
	if ip != ipp {
		t.Errorf("interference: %+v != %+v", ip, ipp)
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
