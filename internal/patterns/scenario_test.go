package patterns

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/platform"
	"repro/internal/sweep"
)

func TestKindsRegistered(t *testing.T) {
	for _, kind := range []sweep.Kind{KindBarrier, KindRCU, KindCombLock} {
		s, ok := sweep.Lookup(string(kind))
		if !ok {
			t.Fatalf("kind %q not registered", kind)
		}
		if s.Reads()&sweep.FieldGrid == 0 {
			t.Errorf("kind %q must support the policy grid", kind)
		}
		if d := sweep.Describe(string(kind)); d == "" {
			t.Errorf("kind %q has no description", kind)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	topo := noc.Small()
	s, _ := sweep.Lookup(string(KindBarrier))
	j, err := s.Normalize(sweep.Job{Kind: KindBarrier, Topo: "small"}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if j.Warmup != DefaultPatternWarmup || j.Measure != DefaultPatternMeasure {
		t.Errorf("windows = %d/%d, want %d/%d", j.Warmup, j.Measure,
			DefaultPatternWarmup, DefaultPatternMeasure)
	}
	if want := []int{2, 4, 8, 16}; len(j.Bins) != len(want) {
		t.Errorf("default counts = %v, want %v", j.Bins, want)
	}
	// Normalize canonicalizes the param strings, so a job spelling out
	// the defaults shares cache entries with a job leaving them blank.
	if j.Params[ParamWait] != "spin,backoff,mwait" {
		t.Errorf("canonical wait = %q", j.Params[ParamWait])
	}
	if j.Params[ParamVariant] != "central,tree,butterfly" {
		t.Errorf("canonical variant = %q", j.Params[ParamVariant])
	}
	j2, err := s.Normalize(sweep.Job{Kind: KindBarrier, Topo: "small",
		Params: map[string]string{ParamWait: " spin , backoff , mwait "}}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Params[ParamWait] != j.Params[ParamWait] {
		t.Errorf("spaced wait list canonicalized to %q, want %q",
			j2.Params[ParamWait], j.Params[ParamWait])
	}
}

func TestNormalizeRejects(t *testing.T) {
	topo := noc.Small()
	cases := []struct {
		name string
		job  sweep.Job
		want string
	}{
		{"unknown param", sweep.Job{Kind: KindBarrier,
			Params: map[string]string{"waitt": "spin"}}, "unknown param"},
		{"bad wait kind", sweep.Job{Kind: KindBarrier,
			Params: map[string]string{ParamWait: "sleep"}}, "unknown wait kind"},
		{"duplicate wait kind", sweep.Job{Kind: KindBarrier,
			Params: map[string]string{ParamWait: "spin,spin"}}, "duplicate wait kind"},
		{"bad variant", sweep.Job{Kind: KindBarrier,
			Params: map[string]string{ParamVariant: "star"}}, "unknown barrier variant"},
		{"duplicate variant", sweep.Job{Kind: KindBarrier,
			Params: map[string]string{ParamVariant: "tree,central,tree"}}, "duplicate barrier variant"},
		{"tree needs pow2", sweep.Job{Kind: KindBarrier, Bins: []int{3}}, "power of two"},
		{"count above cores", sweep.Job{Kind: KindBarrier, Bins: []int{32}}, "out of range"},
		{"rcu needs a reader", sweep.Job{Kind: KindRCU, Bins: []int{1}}, "out of range"},
		{"rcu unknown param", sweep.Job{Kind: KindRCU,
			Params: map[string]string{ParamVariant: "central"}}, "unknown param"},
		{"bad maxcombine", sweep.Job{Kind: KindCombLock,
			Params: map[string]string{ParamMaxCombine: "0"}}, "positive integer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, ok := sweep.Lookup(string(c.job.Kind))
			if !ok {
				t.Fatalf("kind %q not registered", c.job.Kind)
			}
			_, err := s.Normalize(c.job, topo)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestNormalizeLeavesCallerParams pins that normalizing writes the
// canonical params into a copy: the CLI hands one -params map to every
// selected kind, so barrier's canonical variant list must not reach
// rcu, which refuses the key.
func TestNormalizeLeavesCallerParams(t *testing.T) {
	params := map[string]string{ParamWait: "mwait"}
	for _, kind := range []sweep.Kind{KindBarrier, KindRCU, KindCombLock} {
		if _, err := (sweep.Job{Kind: kind, Topo: "small", Params: params}).Normalize(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	if len(params) != 1 || params[ParamWait] != "mwait" {
		t.Errorf("Normalize changed the caller's params to %v", params)
	}
}

// TestCentralAllowsNonPow2 pins that the power-of-two restriction only
// applies when a tree or butterfly variant is selected.
func TestCentralAllowsNonPow2(t *testing.T) {
	s, _ := sweep.Lookup(string(KindBarrier))
	_, err := s.Normalize(sweep.Job{Kind: KindBarrier, Bins: []int{3},
		Params: map[string]string{ParamVariant: "central"}}, noc.Small())
	if err != nil {
		t.Errorf("central-only barrier with 3 cores rejected: %v", err)
	}
}

// TestCurveSetShape pins the (variant × wait) curve expansion, and for
// every pattern kind the policy resolution of its cache keys.
func TestCurveSetShape(t *testing.T) {
	topo := noc.Small()
	s, _ := sweep.Lookup(string(KindBarrier))
	j, err := s.Normalize(sweep.Job{Kind: KindBarrier, Topo: "small",
		Params: map[string]string{ParamWait: "mwait", ParamVariant: "tree,butterfly"}}, topo)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := s.Curves(topo, j)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range curves {
		names = append(names, c.Name)
	}
	if got, want := strings.Join(names, " "), "tree-mwait butterfly-mwait"; got != want {
		t.Errorf("curves = %q, want %q", got, want)
	}
	// A grid coordinate restating the baseline policy must key
	// identically to the grid-free job (same simulation); any other
	// policy must fork every key.
	keys := func(j sweep.Job) []string {
		e, err := sweep.ExpandJob(j)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, it := range e.Items {
			keys = append(keys, it.Key)
		}
		return keys
	}
	for _, kind := range []sweep.Kind{KindBarrier, KindRCU, KindCombLock} {
		base := sweep.Job{Kind: kind, Topo: "small", Bins: []int{2, 4}}
		free := keys(base)
		if len(free) == 0 || free[0] == "" {
			t.Fatalf("%s: no cacheable items", kind)
		}
		restated, plain := base, base
		restated.Policies = []string{string(platform.PolicyColibri)}
		plain.Policies = []string{string(platform.PolicyPlain)}
		if got := keys(restated); !slices.Equal(got, free) {
			t.Errorf("%s: restated baseline forks the cache keys: %q vs %q", kind, got, free)
		}
		for _, k := range keys(plain) {
			if slices.Contains(free, k) {
				t.Errorf("%s: policy axis does not enter the cache key %q", kind, k)
			}
		}
	}
}
