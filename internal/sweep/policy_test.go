package sweep

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/area"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/platform"
)

// areaHookPolicy is a minimal custom policy carrying the area.PolicyRows
// and energy.PolicyWeights hooks, registered only in this test binary.
type areaHookPolicy struct{}

func (areaHookPolicy) Name() string { return "hook-test" }
func (p areaHookPolicy) Normalize(platform.PolicyParams, noc.Topology) (platform.Policy, error) {
	return p, nil
}
func (areaHookPolicy) NewAdapter(platform.BankContext) mem.Adapter { return mem.PlainAdapter{} }
func (areaHookPolicy) EnergyWeights() energy.Params                { return hookEnergy }
func (areaHookPolicy) AreaRows(m area.Model, nCores int) []area.Row {
	if !areaHookRows.Load() {
		return nil
	}
	return []area.Row{{Design: "with hook-test", Params: "test", AreaKGE: 700}}
}

// hookEnergy is the hook policy's energy model: the shared one with
// dearer instructions, so a run that uses it shows.
var hookEnergy = func() energy.Params {
	e := energy.Default()
	e.PJPerBusy *= 2
	return e
}()

// areaHookRows switches the hook's row on for TestAreaPolicyRowsHook
// only. The policy stays registered for the rest of the test binary,
// so without the switch every later Table I — the golden one included —
// would carry the row, and the outcome would depend on test order.
var areaHookRows atomic.Bool

// registerAreaHookPolicy tolerates repeated in-process runs
// (go test -count=2); the registry has deliberately no unregister.
var registerAreaHookPolicy = sync.OnceFunc(func() {
	platform.MustRegisterPolicy(areaHookPolicy{})
})

// The policy grid axis: sweeping the hardware policy itself, by
// registered name, next to the parameter axes.

func TestNormalizePolicyAxisCanonicalized(t *testing.T) {
	j := Job{Kind: Fig3, Topo: "small", Bins: []int{1},
		Grid: Grid{Policies: []string{"lrsc", "colibri", "lrsc"}}}
	n, err := j.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n.Policies, []string{"colibri", "lrsc"}) {
		t.Errorf("policy axis not canonicalized: %v", n.Policies)
	}
	if n.Grid.IsZero() {
		t.Error("grid reads zero with only the policy axis set")
	}
}

// TestUnknownPolicyErrorListsRegistered pins the error a mistyped
// -policy produces: it must name the registered policies so the user
// can correct the selector without reading source (mirroring the
// unknown-kind error).
func TestUnknownPolicyErrorListsRegistered(t *testing.T) {
	_, err := Job{Kind: Fig3, Topo: "small", Grid: Grid{Policies: []string{"nonesuch"}}}.Normalize()
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"nonesuch"`) || !strings.Contains(msg, "registered:") {
		t.Errorf("error does not explain itself: %v", err)
	}
	for _, name := range []string{"plain", "lrsc", "lrsc-table", "lrscwait", "colibri"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list registered policy %s: %v", name, err)
		}
	}
}

// TestPolicyAxisSeriesLabels checks the expansion shape with a policy
// axis: one series per (spec, policy) pair that can make progress, the
// coordinate in both the name suffix and the structured Grid field, and
// one NotRun note per pair that cannot (the LRwait curves, which
// neither LR/SC policy serves).
func TestPolicyAxisSeriesLabels(t *testing.T) {
	job := Job{Kind: Fig3, Topo: "small", Bins: []int{1},
		Warmup: testWarmup, Measure: testMeasure,
		Grid: Grid{Policies: []string{"lrsc", "lrsc-table"}}}
	norm, err := job.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	e, err := expand(norm)
	if err != nil {
		t.Fatal(err)
	}
	series := e.series
	kept, dropped := 0, 0
	for _, spec := range experiments.Fig3Specs(noc.Small().NumCores()) {
		if n := spec.Variant.Needs(); n != 0 && n&platform.ClassLRSC == 0 {
			dropped++
		} else {
			kept++
		}
	}
	if len(series) != kept*2 || len(e.notRun) != dropped*2 || dropped == 0 {
		t.Fatalf("%d series and %d notes, want %d and %d (specs × policies)",
			len(series), len(e.notRun), kept*2, dropped*2)
	}
	for i, s := range series {
		wantName := "lrsc"
		if i%2 == 1 {
			wantName = "lrsc-table"
		}
		if !strings.HasSuffix(s.Name, "[policy="+wantName+"]") {
			t.Errorf("series %d name %q missing policy suffix %q", i, s.Name, wantName)
		}
		if s.Grid == nil || s.Grid.Policy == nil || *s.Grid.Policy != wantName {
			t.Errorf("series %d carries no policy coordinate: %+v", i, s.Grid)
		}
	}
}

// TestPolicyAxisForksCacheKeys pins the policy axis into the cache
// identity of every grid kind: jobs differing only in the swept policy,
// between two policies that serve the same classes, share no unit keys.
func TestPolicyAxisForksCacheKeys(t *testing.T) {
	for _, pair := range [][2]string{{"lrsc", "lrsc-table"}, {"lrscwait", "colibri"}} {
		for _, base := range gridKindJobs() {
			if base.Kind == SingleRun && pair[0] == "lrsc" {
				continue // its default LRwait histogram runs under neither
			}
			a, b := base, base
			a.Policies = []string{pair[0]}
			b.Policies = []string{pair[1]}
			ka, kb := unitKeys(t, a), unitKeys(t, b)
			if len(ka) == 0 || len(kb) == 0 {
				t.Fatalf("%s: empty key set", base.Kind)
			}
			for k := range ka {
				if kb[k] {
					t.Errorf("%s: jobs differing only in the policy axis share key %q", base.Kind, k)
				}
			}
		}
	}
}

// TestPolicyAxisRestatedSpecSharesKeys: a policy axis that merely
// restates a curve's baked-in policy is the same simulation and must hit
// the same cache entries — exactly the parameter-axis contract, extended
// to the policy itself. Of fig3's curves only amoadd runs on plain, so a
// policy=plain sweep shares exactly that curve's units with the
// grid-free job.
func TestPolicyAxisRestatedSpecSharesKeys(t *testing.T) {
	base := Job{Kind: Fig3, Topo: "small", Bins: []int{1, 4},
		Warmup: testWarmup, Measure: testMeasure}
	restated := base
	restated.Policies = []string{string(platform.PolicyPlain)}
	plain, got := unitKeys(t, base), unitKeys(t, restated)
	shared := 0
	for k := range got {
		if plain[k] {
			shared++
		}
	}
	if shared != len(base.Bins) {
		t.Errorf("restated-policy sweep shares %d keys with the grid-free job, want %d (the amoadd curve)",
			shared, len(base.Bins))
	}
}

// TestPolicyAxisPointParity pins a policy-axis unit to the reference
// runner: the engine's point under policy=lrsc-table must exactly match
// a direct RunHistogramPoint call on the spec with the overridden kind,
// for every spec the LR/SC table can run.
func TestPolicyAxisPointParity(t *testing.T) {
	topo := noc.Small()
	job := Job{Kind: Fig3, Topo: "small", Bins: []int{1},
		Warmup: testWarmup, Measure: testMeasure,
		Grid: Grid{Policies: []string{string(platform.PolicyLRSCTable)}}}
	res, _, err := (&Runner{Workers: 4}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	var specs []experiments.HistSpec
	for _, spec := range experiments.Fig3Specs(topo.NumCores()) {
		if n := spec.Variant.Needs(); n == 0 || n&platform.ClassLRSC != 0 {
			specs = append(specs, spec)
		}
	}
	if len(res.Series) != len(specs) {
		t.Fatalf("series = %d, want %d", len(res.Series), len(specs))
	}
	for si, spec := range specs {
		spec.Policy.Kind = platform.PolicyLRSCTable
		ref := experiments.RunHistogramPoint(spec, topo, 1, testWarmup, testMeasure)
		if got := res.Series[si].Points[0].Throughput; got != ref.Throughput {
			t.Errorf("%s: engine %v != direct %v", res.Series[si].Name, got, ref.Throughput)
		}
	}
}

func TestParseGridPolicyAxis(t *testing.T) {
	g, err := ParseGrid("policy=lrsc,colibri backoff=0,64")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Policies, []string{"lrsc", "colibri"}) ||
		!reflect.DeepEqual(g.Backoffs, []int{0, 64}) {
		t.Errorf("ParseGrid = %+v", g)
	}
	if g.IsZero() {
		t.Error("parsed grid reports zero")
	}
	if g, err := ParseGrid("policy=nbfeb"); err != nil || g.IsZero() {
		// Existence checks are Normalize's job: the flag must accept any
		// name so a front end can parse before custom registrations.
		t.Errorf("policy-only grid: %+v, %v", g, err)
	}
	if _, err := ParseGrid("policy="); err == nil {
		t.Error("empty policy list accepted")
	}
}

// TestAreaPolicyRowsHook: a registered policy implementing the
// area.PolicyRows hook contributes a Table I row; the built-ins add
// nothing, keeping the default table byte-identical.
func TestAreaPolicyRowsHook(t *testing.T) {
	registerAreaHookPolicy()
	areaHookRows.Store(true)
	t.Cleanup(func() { areaHookRows.Store(false) })
	res, _, err := (&Runner{Workers: 1}).Run(Job{Kind: TableI, Topo: "small"})
	if err != nil {
		t.Fatal(err)
	}
	points := res.Series[0].Points
	found := false
	for _, p := range points {
		if p.Label == "with hook-test" {
			found = true
			if p.AreaKGE != 700 {
				t.Errorf("hook row area = %v, want 700", p.AreaKGE)
			}
			if p.OverheadPct == 0 {
				t.Error("hook row overhead not derived")
			}
		}
	}
	if !found {
		t.Fatalf("hook policy row missing from table1: %+v", points)
	}
}
