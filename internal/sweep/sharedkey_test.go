package sweep

import (
	"reflect"
	"testing"
)

// TestSharedKeyOneSimulation checks the promise behind every shared
// cache key: items whose keys are equal run the same simulation. It
// expands every built-in job on small, a five-policy Fig. 3 grid, and
// Fig. 6 on both queues, groups the items by key, and runs every item of
// each key that two or more items share: their points must be equal. A
// key that dropped something Run reads would join two simulations here.
func TestSharedKeyOneSimulation(t *testing.T) {
	if Fingerprint() == "" {
		t.Skip("binary has no fingerprint, so no item carries a key")
	}
	var jobs []Job
	for _, k := range append(Kinds(), SingleRun) {
		j := Job{Kind: k, Topo: "small", Warmup: testWarmup, Measure: testMeasure}
		if k == TableI {
			j.Warmup, j.Measure = 0, 0 // the area model reads no windows
		}
		jobs = append(jobs, j)
	}
	jobs = append(jobs, Job{Kind: Fig3, Topo: "small", Warmup: testWarmup, Measure: testMeasure,
		Grid: Grid{Policies: []string{"plain", "lrsc", "lrsc-table", "lrscwait", "colibri"}}})

	type item struct {
		kind Kind
		name string
		it   WorkItem
	}
	byKey := map[string][]item{}
	var keys []string // first-seen order, so failures read in job order
	for _, j := range jobs {
		e, err := ExpandJob(j)
		if err != nil {
			t.Fatalf("%s: %v", j.Kind, err)
		}
		for _, it := range e.Items {
			if it.Key == "" {
				continue
			}
			if _, seen := byKey[it.Key]; !seen {
				keys = append(keys, it.Key)
			}
			byKey[it.Key] = append(byKey[it.Key], item{j.Kind, e.series[it.Series].Name, it})
		}
	}
	shared, runs := 0, 0
	for _, k := range keys {
		group := byKey[k]
		if len(group) < 2 {
			continue
		}
		shared++
		want := group[0].it.Compute()
		runs++
		for _, g := range group[1:] {
			runs++
			if got := g.it.Compute(); !reflect.DeepEqual(got, want) {
				t.Errorf("key %q joins two simulations:\n%s %s point %d = %+v\n%s %s point %d = %+v",
					k, group[0].kind, group[0].name, group[0].it.Point, want,
					g.kind, g.name, g.it.Point, got)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no key is shared, so nothing was compared")
	}
	t.Logf("%d shared keys, %d items run", shared, runs)
}
