package sweep

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/noc"
)

// gridTestJob is the reduced policy-grid sweep the grid tests share:
// one bin level, a 2×2 queuecap × backoff grid on the 16-core topology.
func gridTestJob() Job {
	return Job{Kind: Fig3, Topo: "small", Bins: []int{1},
		Warmup: testWarmup, Measure: testMeasure,
		Grid: Grid{QueueCaps: []int{0, 1}, Backoffs: []int{0, 64}}}
}

func TestNormalizeGridCanonicalizes(t *testing.T) {
	j := Job{Kind: Fig3, Topo: "small", Bins: []int{1}, Grid: Grid{
		QueueCaps:     []int{4, 0, 1, 4},
		ColibriQueues: []int{8, 2, 2},
		Backoffs:      []int{64, 0, 64}}}
	n, err := j.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n.QueueCaps, []int{0, 1, 4}) ||
		!reflect.DeepEqual(n.ColibriQueues, []int{2, 8}) ||
		!reflect.DeepEqual(n.Backoffs, []int{0, 64}) {
		t.Errorf("grid axes not canonicalized: %+v", n)
	}
	if n.Grid.IsZero() {
		t.Error("grid reads zero after normalize")
	}
	if !(Job{Kind: Fig3}).Grid.IsZero() {
		t.Error("grid-free job has a non-zero grid")
	}
}

func TestNormalizeGridErrors(t *testing.T) {
	base := Job{Kind: Fig3, Topo: "small", Bins: []int{1}}
	bad := []Job{
		func(j Job) Job { j.QueueCaps = []int{-1}; return j }(base),
		func(j Job) Job { j.ColibriQueues = []int{0}; return j }(base),
		func(j Job) Job { j.Backoffs = []int{-5}; return j }(base),
		{Kind: TableI, Topo: "small", Grid: Grid{QueueCaps: []int{1}}},
		{Kind: TableII, Topo: "small", Grid: Grid{Backoffs: []int{64}}},
	}
	for i, j := range bad {
		if _, err := j.Normalize(); err == nil {
			t.Errorf("job %d (%+v) accepted", i, j)
		}
	}
}

// TestGridSeriesLabels checks the expansion shape: one series per
// (spec, grid coordinate), spec-major, each carrying its coordinate in
// both the name suffix and the structured Grid field; grid-free series
// stay unlabelled.
func TestGridSeriesLabels(t *testing.T) {
	norm, err := gridTestJob().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	e, err := expand(norm)
	if err != nil {
		t.Fatal(err)
	}
	series, units := e.series, e.Items
	nSpecs := len(experiments.Fig3Specs(noc.Small().NumCores()))
	if want := nSpecs * 4; len(series) != want {
		t.Fatalf("series = %d, want %d (specs × grid points)", len(series), want)
	}
	if len(units) != len(series)*len(norm.Bins) {
		t.Fatalf("units = %d, want %d", len(units), len(series)*len(norm.Bins))
	}
	// Spec-major, grid ascending: first four series are the first spec at
	// (q=0,bo=0), (q=0,bo=64), (q=1,bo=0), (q=1,bo=64).
	wantSuffix := []string{
		"[queuecap=0 backoff=0]", "[queuecap=0 backoff=64]",
		"[queuecap=1 backoff=0]", "[queuecap=1 backoff=64]",
	}
	for i, suffix := range wantSuffix {
		s := series[i]
		if !strings.HasSuffix(s.Name, suffix) {
			t.Errorf("series %d name %q missing %q", i, s.Name, suffix)
		}
		if s.Grid == nil || s.Grid.QueueCap == nil || s.Grid.Backoff == nil {
			t.Fatalf("series %d has no grid coordinate: %+v", i, s.Grid)
		}
		if s.Grid.ColibriQueues != nil {
			t.Errorf("series %d carries an unswept axis", i)
		}
		if got := "[" + s.Grid.Label() + "]"; got != suffix {
			t.Errorf("series %d label %q != suffix %q", i, got, suffix)
		}
	}

	plain, err := testJob(Fig3).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	e, err = expand(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range e.series {
		if s.Grid != nil || strings.Contains(s.Name, "[") {
			t.Errorf("grid-free series labelled: %+v", s)
		}
	}
}

// TestGridDeterministicAcrossWorkers extends the engine's core guarantee
// to grid sweeps: 1 worker and GOMAXPROCS workers emit byte-identical
// JSON.
func TestGridDeterministicAcrossWorkers(t *testing.T) {
	job := gridTestJob()
	serial := resultJSON(t, Runner{Workers: 1}, job)
	parallel := resultJSON(t, Runner{Workers: 0}, job) // GOMAXPROCS
	if !bytes.Equal(serial, parallel) {
		t.Errorf("1-worker and GOMAXPROCS-worker grid JSON differ:\n%s\n---\n%s",
			serial, parallel)
	}
}

// TestGridWarmCacheExecutesNothing checks a warm-cache grid re-run is
// served entirely from the cache with identical output.
func TestGridWarmCacheExecutesNothing(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := gridTestJob()
	r := Runner{Workers: 4, Cache: cache}
	cold, st, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != st.Units || st.CacheHits != 0 {
		t.Fatalf("cold grid run stats = %+v", st)
	}
	warm, st, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 0 {
		t.Errorf("warm grid run executed %d simulations", st.Executed)
	}
	if st.CacheHits != st.Units {
		t.Errorf("warm grid run hits = %d, want %d", st.CacheHits, st.Units)
	}
	cb, _ := cold.JSON()
	wb, _ := warm.JSON()
	if !bytes.Equal(cb, wb) {
		t.Error("warm-cache grid result differs from cold run")
	}
}

// unitKeys expands a job and returns the cache keys of its simulation
// work items as a set.
func unitKeys(t *testing.T, j Job) map[string]bool {
	t.Helper()
	norm, err := j.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	e, err := expand(norm)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, it := range e.Items {
		if it.Key == "" {
			t.Fatal("uncacheable item in test binary (fingerprint failed?)")
		}
		keys[it.Key] = true
	}
	return keys
}

// gridKindJobs returns one small grid-free job per built-in kind with
// grid axes: the engine, not the scenario, overlays the grid on each
// curve's policy, so every one of them must keep the keying contract.
func gridKindJobs() []Job {
	var jobs []Job
	for _, k := range []Kind{Fig3, Fig4, Fig5, Fig6, Fig6MS, SingleRun} {
		j := Job{Kind: k, Topo: "small", Warmup: testWarmup, Measure: testMeasure}
		if k != Fig6 && k != Fig6MS {
			j.Bins = []int{1}
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// TestGridAxisForksCacheKeys pins the grid axes into the cache identity:
// two jobs differing only in one grid axis share no unit key of a curve
// whose policy reads the axis, and every key of a curve whose policy
// ignores it.
func TestGridAxisForksCacheKeys(t *testing.T) {
	vary := []struct {
		name string
		a, b func(Job) Job
		// reader marks the keys of the one policy that reads the axis;
		// empty when every policy keys it (the software backoff).
		reader string
	}{
		{"queuecap", func(j Job) Job { j.QueueCaps = []int{1}; return j },
			func(j Job) Job { j.QueueCaps = []int{2}; return j }, "|p=lrscwait|"},
		{"colibriq", func(j Job) Job { j.ColibriQueues = []int{2}; return j },
			func(j Job) Job { j.ColibriQueues = []int{8}; return j }, "|p=colibri|"},
		{"backoff", func(j Job) Job { j.Backoffs = []int{32}; return j },
			func(j Job) Job { j.Backoffs = []int{64}; return j }, ""},
	}
	for _, base := range gridKindJobs() {
		for _, v := range vary {
			a, b := unitKeys(t, v.a(base)), unitKeys(t, v.b(base))
			if len(a) == 0 || len(b) == 0 {
				t.Fatalf("%s %s: empty key set", base.Kind, v.name)
			}
			for k := range a {
				switch reads := strings.Contains(k, v.reader); {
				case reads && b[k]:
					t.Errorf("%s: jobs differing only in the %s axis share key %q", base.Kind, v.name, k)
				case !reads && !b[k]:
					t.Errorf("%s: a policy that ignores the %s axis forked key %q", base.Kind, v.name, k)
				}
			}
		}
	}
}

// TestGridRestatedDefaultSharesKeys pins the effective-policy keying:
// a grid that merely restates a default (backoff=128, colibriq=4) is
// the same simulation as the grid-free sweep and must hit the same
// cache entries.
func TestGridRestatedDefaultSharesKeys(t *testing.T) {
	for _, base := range gridKindJobs() {
		kind := base.Kind
		plain := unitKeys(t, base)
		restated := base
		restated.Backoffs = []int{experiments.DefaultBackoff}
		restated.ColibriQueues = []int{4}
		got := unitKeys(t, restated)
		if len(got) != len(plain) {
			t.Fatalf("%s: restated-default grid has %d keys, grid-free %d",
				kind, len(got), len(plain))
		}
		for k := range got {
			if !plain[k] {
				t.Errorf("%s: restated-default key %q not shared with grid-free sweep", kind, k)
			}
		}
	}
}

// TestCacheVersionBumpInvalidatesOldEntries pins the v3 bump: every
// unit key now carries the v3 prefix, and entries stored under the
// corresponding earlier-era keys (v1 pre-grid, v2 pre-registry) are
// never served for it.
func TestCacheVersionBumpInvalidatesOldEntries(t *testing.T) {
	if cacheVersion == "v1" || cacheVersion == "v2" {
		t.Fatal("cacheVersion not bumped for the scenario-owned keys")
	}
	keys := unitKeys(t, testJob(Fig3))
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		if !strings.HasPrefix(k, cacheVersion+"|") {
			t.Fatalf("key %q does not start with %q", k, cacheVersion+"|")
		}
		for _, oldVersion := range []string{"v1", "v2"} {
			old := oldVersion + "|" + strings.TrimPrefix(k, cacheVersion+"|")
			if err := cache.Put(old, Point{X: -1, Throughput: 99}); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := cache.Get(k); ok {
			t.Fatalf("old-era entry served for %s key %q", cacheVersion, k)
		}
	}
}

// TestGridPointParity pins a grid unit to the reference runner: the
// engine's (spec, coordinate, bins) point must exactly match a direct
// RunHistogramPoint call on the spec with the merged policy.
func TestGridPointParity(t *testing.T) {
	topo := noc.Small()
	job := Job{Kind: Fig3, Topo: "small", Bins: []int{1}, Warmup: testWarmup,
		Measure: testMeasure, Grid: Grid{QueueCaps: []int{2}, Backoffs: []int{16}}}
	res, _, err := (&Runner{Workers: 4}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	specs := experiments.Fig3Specs(topo.NumCores())
	if len(res.Series) != len(specs) {
		t.Fatalf("series = %d, want %d", len(res.Series), len(specs))
	}
	for si, spec := range specs {
		spec.Policy.QueueCap = 2
		spec.Policy.Backoff = 16
		ref := experiments.RunHistogramPoint(spec, topo, 1, testWarmup, testMeasure)
		got := res.Series[si].Points[0]
		if got.Throughput != ref.Throughput {
			t.Errorf("%s: engine %v != direct %v", res.Series[si].Name,
				got.Throughput, ref.Throughput)
		}
	}
}

// TestGridZeroBackoffIsLiteral checks a backoff=0 grid value means no
// backoff, not the spec's 128-cycle default, on the LR/SC curve (the
// one whose retries back off).
func TestGridZeroBackoffIsLiteral(t *testing.T) {
	topo := noc.Small()
	specs := experiments.Fig3Specs(topo.NumCores())
	last := len(specs) - 1
	spec := specs[last]
	job := Job{Kind: Fig3, Topo: "small", Bins: []int{1},
		Warmup: testWarmup, Measure: testMeasure, Grid: Grid{Backoffs: []int{0}}}
	res, _, err := (&Runner{Workers: 2}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	paper := experiments.RunHistogramPoint(spec, topo, 1, testWarmup, testMeasure)
	spec.Policy.Backoff = 0
	ref := experiments.RunHistogramPoint(spec, topo, 1, testWarmup, testMeasure)
	got := res.Series[last].Points[0].Throughput
	if got != ref.Throughput {
		t.Errorf("%s backoff=0 grid point %v != no-backoff reference %v", spec.Name, got, ref.Throughput)
	}
	if got == paper.Throughput {
		t.Errorf("%s backoff=0 grid point %v equals the 128-cycle run", spec.Name, got)
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("queuecap=0,1,2,4 colibriq=2,4,8 backoff=0,64")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.QueueCaps, []int{0, 1, 2, 4}) ||
		!reflect.DeepEqual(g.ColibriQueues, []int{2, 4, 8}) ||
		!reflect.DeepEqual(g.Backoffs, []int{0, 64}) {
		t.Errorf("ParseGrid = %+v", g)
	}
	if g.IsZero() {
		t.Error("parsed grid reports zero")
	}
	if g, err := ParseGrid(""); err != nil || !g.IsZero() {
		t.Errorf("empty flag: %+v, %v", g, err)
	}
	if g, err := ParseGrid("backoff=1 backoff=2"); err != nil ||
		!reflect.DeepEqual(g.Backoffs, []int{1, 2}) {
		t.Errorf("repeated axis: %+v, %v", g, err)
	}
	for _, bad := range []string{"queuecap", "queuecap=", "queuecap=x", "queuecap=-1", "spins=4"} {
		if _, err := ParseGrid(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// randomJob builds a Normalize-valid job with randomized fields,
// including grid axes for the figure kinds.
func randomJob(rng *rand.Rand) Job {
	figKinds := []Kind{Fig3, Fig4, Fig5, Fig6, Fig6MS}
	topos := []string{"small", "medium", "mempool"}
	j := Job{Topo: topos[rng.Intn(len(topos))]}
	vals := func(n, lo, span int) []int {
		var out []int
		for i := 0; i < n; i++ {
			out = append(out, lo+rng.Intn(span))
		}
		return out
	}
	switch rng.Intn(7) {
	case 0:
		j.Kind = TableI
		j.Cores = 1 + rng.Intn(512)
	case 1:
		j.Kind = TableII
	default:
		j.Kind = figKinds[rng.Intn(len(figKinds))]
		registered := []string{"plain", "lrsc", "lrsc-table", "lrscwait", "colibri"}
		for i := rng.Intn(3); i > 0; i-- {
			j.Policies = append(j.Policies, registered[rng.Intn(len(registered))])
		}
		j.QueueCaps = vals(rng.Intn(4), 0, 8)
		j.ColibriQueues = vals(rng.Intn(4), 1, 8)
		j.Backoffs = vals(rng.Intn(4), 0, 256)
	}
	switch j.Kind {
	case Fig3, Fig4, Fig5:
		j.Bins = vals(rng.Intn(4), 1, 16)
		if j.Kind == Fig5 && rng.Intn(2) == 0 {
			j.MatN = 64 + rng.Intn(64)
		}
	}
	if j.Kind != TableI && rng.Intn(2) == 0 {
		j.Warmup = rng.Intn(100) - 1
		j.Measure = rng.Intn(100) - 1
	}
	return j
}

// shuffleGrid returns the job with its grid axes permuted and one
// duplicate value appended per non-empty axis — the reorderings
// Normalize must erase.
func shuffleGrid(j Job, rng *rand.Rand) Job {
	mix := func(vals []int) []int {
		if len(vals) == 0 {
			return vals
		}
		out := append([]int(nil), vals...)
		out = append(out, out[rng.Intn(len(out))])
		rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
		return out
	}
	j.QueueCaps = mix(j.QueueCaps)
	j.ColibriQueues = mix(j.ColibriQueues)
	j.Backoffs = mix(j.Backoffs)
	if len(j.Policies) > 0 {
		out := append([]string(nil), j.Policies...)
		out = append(out, out[rng.Intn(len(out))])
		rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
		j.Policies = out
	}
	return j
}

// TestNormalizeProperty is the normalization contract as a property
// test: over randomized jobs, Normalize is idempotent, insensitive to
// grid-axis order and duplication, and therefore cannot fork the cache
// identity (the expanded unit-key sequence) of equivalent specs. A job
// whose policies run none of its curves fails alike in both orders.
func TestNormalizeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for i := 0; i < 300; i++ {
		j := randomJob(rng)
		n1, err := j.Normalize()
		if err != nil {
			t.Fatalf("job %d (%+v): %v", i, j, err)
		}
		n2, err := n1.Normalize()
		if err != nil {
			t.Fatalf("job %d: re-normalize: %v", i, err)
		}
		if !reflect.DeepEqual(n1, n2) {
			t.Fatalf("job %d: Normalize not idempotent:\n%+v\n%+v", i, n1, n2)
		}
		n3, err := shuffleGrid(j, rng).Normalize()
		if err != nil {
			t.Fatalf("job %d: shuffled normalize: %v", i, err)
		}
		if !reflect.DeepEqual(n1, n3) {
			t.Fatalf("job %d: Normalize order-sensitive:\n%+v\n%+v", i, n1, n3)
		}
		e1, err1 := expand(n1)
		e3, err3 := expand(n3)
		if errors.Is(err1, ErrNotRun) && err3 != nil && err3.Error() == err1.Error() {
			continue // neither runs a pair, and both say so identically
		}
		if err1 != nil || err3 != nil {
			t.Fatalf("job %d: expand: %v; shuffled: %v", i, err1, err3)
		}
		u1, u3 := e1.Items, e3.Items
		if len(u1) != len(u3) {
			t.Fatalf("job %d: item counts differ: %d vs %d", i, len(u1), len(u3))
		}
		for k := range u1 {
			if u1[k].Key != u3[k].Key {
				t.Fatalf("job %d: cache identity forked at item %d:\n%q\n%q",
					i, k, u1[k].Key, u3[k].Key)
			}
		}
	}
}
