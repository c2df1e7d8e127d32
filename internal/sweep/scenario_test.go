package sweep

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/noc"
)

// fakeScenario is a registrable workload of pure arithmetic: fast enough
// to run in every registry test, yet shaped like a real scenario (cache
// keys, grid-aware policy resolution, a custom Extra metric, Params).
type fakeScenario struct {
	name string
	grid bool
}

func (s fakeScenario) Name() string { return s.name }
func (s fakeScenario) Reads() Field {
	if s.grid {
		return FieldBins | FieldWindows | FieldParams | FieldGrid
	}
	return FieldBins | FieldWindows | FieldParams
}

func (s fakeScenario) Normalize(j Job, topo noc.Topology) (Job, error) {
	j.DefaultWindows(100, 200)
	if len(j.Bins) == 0 {
		j.Bins = []int{1, 2, 4}
	}
	if _, err := s.scale(j); err != nil {
		return j, err
	}
	return j, nil
}

func (fakeScenario) scale(j Job) (float64, error) {
	v, ok := j.Params["scale"]
	if !ok {
		return 1, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("fake: bad scale %q", v)
	}
	return f, nil
}

func (s fakeScenario) Curves(topo noc.Topology, j Job) ([]Curve, error) {
	scale, err := s.scale(j)
	if err != nil {
		return nil, err
	}
	return []Curve{{
		Name: s.name, NumPoints: len(j.Bins), Sim: true,
		Policy: experiments.Policy{Backoff: experiments.DefaultBackoff},
		Key: func(polKey string, pt int) string {
			return fmt.Sprintf("x%d|%s", j.Bins[pt], polKey)
		},
		Run: func(pol experiments.Policy, pt int) Point {
			p := Point{X: j.Bins[pt],
				Throughput: scale * float64(j.Bins[pt]*topo.NumCores())}
			p.SetMetric("wait_cycles", float64(pol.Backoff))
			return p
		},
	}}, nil
}

// registerOnce registers a test scenario, tolerating the duplicate error
// a repeated in-process run (go test -count=2) produces: the registry is
// process-global and has deliberately no unregister.
func registerOnce(t *testing.T, s Scenario) {
	t.Helper()
	if err := Register(s); err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
}

func TestRegisterDuplicateRejected(t *testing.T) {
	registerOnce(t, fakeScenario{name: "dup-test"})
	if err := Register(fakeScenario{name: "dup-test"}); err == nil {
		t.Error("duplicate registration accepted")
	} else if !strings.Contains(err.Error(), "dup-test") {
		t.Errorf("duplicate error does not name the scenario: %v", err)
	}
	// The built-in kinds are already registered at init; re-registering
	// one must be rejected too, so a custom scenario cannot shadow them.
	if err := Register(fakeScenario{name: string(Fig3)}); err == nil {
		t.Error("shadowing a built-in kind accepted")
	}
}

// TestRegisterSharedNamespaceRejected: fig3/fig4 key under "hist" and
// fig6/fig6ms under "queue", and a kind keys under its own name, so a
// scenario of either name could collide with their points.
func TestRegisterSharedNamespaceRejected(t *testing.T) {
	for _, name := range []string{"hist", "queue"} {
		if err := Register(fakeScenario{name: name}); err == nil {
			t.Errorf("scenario %q registered over a shared key namespace", name)
		}
	}
}

func TestRegisterEmptyNameRejected(t *testing.T) {
	if err := Register(fakeScenario{name: ""}); err == nil {
		t.Error("empty-name registration accepted")
	}
}

func TestNamesContainsBuiltins(t *testing.T) {
	names := map[string]bool{}
	for _, n := range Names() {
		names[n] = true
	}
	for _, k := range Kinds() {
		if !names[string(k)] {
			t.Errorf("built-in kind %s missing from Names()", k)
		}
	}
	all := Names()
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("Names() not sorted: %v", all)
		}
	}
}

// TestUnknownKindErrorListsRegistered pins the error a mistyped -kind
// produces: it must name the registered scenarios so the user can
// correct the selector without reading source.
func TestUnknownKindErrorListsRegistered(t *testing.T) {
	_, err := Job{Kind: "nonesuch"}.Normalize()
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"nonesuch"`) || !strings.Contains(msg, "registered:") {
		t.Errorf("error does not explain itself: %v", err)
	}
	for _, k := range []string{"fig3", "fig6ms", "table2"} {
		if !strings.Contains(msg, k) {
			t.Errorf("error does not list registered kind %s: %v", k, err)
		}
	}
}

// TestCustomScenarioRoundTrip is the open-API contract end to end: a
// scenario known only to the registry runs through the engine with
// caching (warm re-run executes zero simulations) and all three emitters.
func TestCustomScenarioRoundTrip(t *testing.T) {
	registerOnce(t, fakeScenario{name: "roundtrip-test", grid: true})
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Kind: "roundtrip-test", Topo: "small",
		Params: map[string]string{"scale": "2.5"}}
	r := Runner{Workers: 4, Cache: cache}

	cold, st, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Units != 3 || st.Executed != 3 || st.CacheHits != 0 {
		t.Fatalf("cold run stats = %+v", st)
	}
	if got := cold.Series[0].Points[2].Throughput; got != 2.5*4*16 {
		t.Errorf("scaled point = %v, want %v (Params not threaded)", got, 2.5*4*16)
	}
	if v, ok := cold.Series[0].Points[0].Metric("wait_cycles"); !ok || v != experiments.DefaultBackoff {
		t.Errorf("custom metric = %v, %v", v, ok)
	}

	warm, st, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 0 || st.CacheHits != st.Units {
		t.Fatalf("warm run stats = %+v (custom scenario not cached)", st)
	}

	// All three emitters, byte-identical across cold and warm runs.
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
	if !strings.Contains(string(coldJSON), `"wait_cycles"`) {
		t.Errorf("custom metric missing from JSON:\n%s", coldJSON)
	}
	tbl := cold.Table().String()
	if tbl != warm.Table().String() {
		t.Error("warm-cache table differs from cold run")
	}
	// No TableRenderer: the generic metric table must carry the custom
	// metric as a column.
	if !strings.Contains(tbl, "wait_cycles") || !strings.Contains(tbl, "throughput") {
		t.Errorf("generic table missing metric columns:\n%s", tbl)
	}
	if cold.CSV() == "" || cold.CSV() != warm.CSV() {
		t.Error("CSV emitter broken for custom scenario")
	}

	// The policy grid applies to a grid-capable custom scenario: per-
	// coordinate series whose resolved backoff lands in the metric.
	gridJob := job
	gridJob.Backoffs = []int{0, 64}
	res, _, err := r.Run(gridJob)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("grid series = %d, want 2", len(res.Series))
	}
	for i, wantBO := range []float64{0, 64} {
		s := res.Series[i]
		if s.Grid == nil || s.Grid.Backoff == nil {
			t.Fatalf("grid series %d carries no coordinate", i)
		}
		if v, _ := s.Points[0].Metric("wait_cycles"); v != wantBO {
			t.Errorf("series %d wait_cycles = %v, want %v", i, v, wantBO)
		}
	}
}

// TestCustomScenarioParamsForkCacheKeys pins Params into the cache
// identity: two jobs differing only in a scenario parameter share no
// unit keys.
func TestCustomScenarioParamsForkCacheKeys(t *testing.T) {
	registerOnce(t, fakeScenario{name: "params-key-test"})
	base := Job{Kind: "params-key-test", Topo: "small"}
	withScale := base
	withScale.Params = map[string]string{"scale": "3"}
	a, b := unitKeys(t, base), unitKeys(t, withScale)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty key set")
	}
	for k := range a {
		if b[k] {
			t.Errorf("jobs differing only in Params share key %q", k)
		}
	}
}

// emptyScenario expands to no curves: legal (a job may select no work)
// and must flow through run + emitters without panicking.
type emptyScenario struct{}

func (emptyScenario) Name() string { return "empty-test" }
func (emptyScenario) Reads() Field { return 0 }
func (emptyScenario) Normalize(j Job, topo noc.Topology) (Job, error) {
	return j, nil
}
func (emptyScenario) Curves(topo noc.Topology, j Job) ([]Curve, error) {
	return nil, nil
}

func TestEmptyScenarioEmitters(t *testing.T) {
	registerOnce(t, emptyScenario{})
	res, st, err := (&Runner{Workers: 1}).Run(Job{Kind: "empty-test", Topo: "small"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Units != 0 || len(res.Series) != 0 {
		t.Fatalf("empty scenario produced work: %+v, %d series", st, len(res.Series))
	}
	if tbl := res.Table().String(); !strings.Contains(tbl, "empty-test") {
		t.Errorf("empty-series table missing title:\n%q", tbl)
	}
	if _, err := res.JSON(); err != nil {
		t.Error(err)
	}
	if csv := res.CSV(); csv != "" {
		t.Errorf("empty-series CSV = %q, want empty (no stray newline)", csv)
	}
}

// negScenario returns a malformed curve (negative point count); the
// engine must reject it with an error, not panic in make().
type negScenario struct{}

func (negScenario) Name() string { return "neg-test" }
func (negScenario) Reads() Field { return 0 }
func (negScenario) Normalize(j Job, topo noc.Topology) (Job, error) {
	return j, nil
}
func (negScenario) Curves(topo noc.Topology, j Job) ([]Curve, error) {
	return []Curve{{Name: "neg", NumPoints: -1,
		Run: func(experiments.Policy, int) Point { return Point{} }}}, nil
}

func TestNegativePointCountRejected(t *testing.T) {
	registerOnce(t, negScenario{})
	_, _, err := (&Runner{Workers: 1}).Run(Job{Kind: "neg-test", Topo: "small"})
	if err == nil || !strings.Contains(err.Error(), "-1 points") {
		t.Errorf("negative NumPoints not rejected: %v", err)
	}
}

// TestParamsKeyEscaping pins the injective Params encoding: maps whose
// raw "k=v" joins would coincide (a value containing the separators vs
// two entries) must not share cache identities.
func TestParamsKeyEscaping(t *testing.T) {
	registerOnce(t, fakeScenario{name: "params-escape-test"})
	base := Job{Kind: "params-escape-test", Topo: "small"}
	one := base
	one.Params = map[string]string{"a": `1"|b"="2`}
	two := base
	two.Params = map[string]string{"a": `1`, "b": `2`}
	a, b := unitKeys(t, one), unitKeys(t, two)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty key set")
	}
	for k := range a {
		if b[k] {
			t.Errorf("distinct Params maps share key %q", k)
		}
	}
}

// TestGridRejectedUnlessRead: a scenario that does not read the policy
// grid (like the table kinds) rejects grid jobs.
func TestGridRejectedUnlessRead(t *testing.T) {
	registerOnce(t, fakeScenario{name: "nogrid-test"})
	_, err := Job{Kind: "nogrid-test", Topo: "small", Grid: Grid{Backoffs: []int{64}}}.Normalize()
	if err == nil || !strings.Contains(err.Error(), "policy-grid") {
		t.Errorf("grid job accepted by grid-less scenario: %v", err)
	}
}

// TestTableIIScenarioOrdering is the Table II physics check at the
// scenario level: the paper's energy ordering (AmoAdd < Colibri < LRSC
// <= AmoAdd lock) and the delta-vs-colibri finalization.
func TestTableIIScenarioOrdering(t *testing.T) {
	res, _, err := (&Runner{Workers: 4}).Run(Job{Kind: TableII, Topo: "small",
		Warmup: 1000, Measure: 4000})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Point{}
	for _, p := range res.Series[0].Points {
		byName[p.Label] = p
		if p.PJPerOp <= 0 {
			t.Fatalf("%s: no energy measured", p.Label)
		}
	}
	if !(byName["amoadd"].PJPerOp < byName["colibri"].PJPerOp) {
		t.Errorf("amoadd (%.1f pJ) not below colibri (%.1f pJ)",
			byName["amoadd"].PJPerOp, byName["colibri"].PJPerOp)
	}
	if !(byName["colibri"].PJPerOp < byName["lrsc"].PJPerOp) {
		t.Errorf("colibri (%.1f pJ) not below lrsc (%.1f pJ)",
			byName["colibri"].PJPerOp, byName["lrsc"].PJPerOp)
	}
	if byName["colibri"].DeltaPct != 0 {
		t.Errorf("colibri delta vs itself = %v, want 0", byName["colibri"].DeltaPct)
	}
	if byName["lrsc"].DeltaPct <= 0 {
		t.Errorf("lrsc delta = %v, want positive", byName["lrsc"].DeltaPct)
	}
}

func TestPointMetricAccess(t *testing.T) {
	var p Point
	if _, ok := p.Metric(MetricThroughput); ok {
		t.Error("zero point reports a throughput metric")
	}
	p.SetMetric(MetricThroughput, 0.25)
	p.SetMetric(MetricBackoff, 128)
	p.SetMetric("custom", 7)
	if p.Throughput != 0.25 || p.Backoff != 128 || p.Extra["custom"] != 7 {
		t.Fatalf("SetMetric did not land in fields: %+v", p)
	}
	for name, want := range map[string]float64{
		MetricThroughput: 0.25, MetricBackoff: 128, "custom": 7,
	} {
		if v, ok := p.Metric(name); !ok || v != want {
			t.Errorf("Metric(%s) = %v, %v; want %v", name, v, ok, want)
		}
	}
	got := p.Metrics()
	want := []string{MetricBackoff, "custom", MetricThroughput}
	if len(got) != len(want) {
		t.Fatalf("Metrics() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Metrics() = %v, want %v", got, want)
		}
	}
	// Extra entries are present even at zero value (unlike well-known
	// fields, which follow the JSON omitempty convention).
	p.SetMetric("zero_extra", 0)
	if _, ok := p.Metric("zero_extra"); !ok {
		t.Error("zero-valued Extra metric reads as absent")
	}
}

func TestParseParams(t *testing.T) {
	p, err := ParseParams(" kernel=amoadd  iters=500 ")
	if err != nil || p["kernel"] != "amoadd" || p["iters"] != "500" || len(p) != 2 {
		t.Errorf("ParseParams = %v, %v", p, err)
	}
	if p, err := ParseParams(""); err != nil || p != nil {
		t.Errorf("empty ParseParams = %v, %v", p, err)
	}
	for _, bad := range []string{"kernel", "=x", "a=1 a=2"} {
		if _, err := ParseParams(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	// key=value with an empty value is legal (flag-like parameters).
	if p, err := ParseParams("flag="); err != nil || len(p) != 1 {
		t.Errorf("empty value: %v, %v", p, err)
	}
}

// TestBuiltinsDescribed pins that every built-in kind carries the
// optional one-line description (-list-kinds navigability) and that
// Describe degrades quietly for unknown names.
func TestBuiltinsDescribed(t *testing.T) {
	for _, kind := range Kinds() {
		if Describe(string(kind)) == "" {
			t.Errorf("built-in kind %q has no description", kind)
		}
	}
	if d := Describe("no-such-kind"); d != "" {
		t.Errorf("Describe of unregistered kind = %q, want empty", d)
	}
}
