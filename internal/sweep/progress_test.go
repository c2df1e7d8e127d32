package sweep_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/patterns"
	"repro/internal/platform"
	"repro/internal/sweep"
)

// TestNoSilentZeros is the "every point makes progress or is not run"
// property over the policy and scenario registries: every kind that
// takes a policy grid — the run kind once per kernel — runs on small
// with every registered policy as a policy= coordinate, and each point
// it keeps must read a non-zero primary metric. A pair whose policy
// serves nothing its code can make progress with must be a NotRun note
// instead. The windows are long enough for the Mwait MCS lock's release
// deadlock under a policy refusing LRwait to empty a 16-bin histogram;
// shorter ones still catch its last few updates.
func TestNoSilentZeros(t *testing.T) {
	primary := map[sweep.Kind]string{
		sweep.Fig3: sweep.MetricThroughput, sweep.Fig4: sweep.MetricThroughput,
		sweep.Fig5: sweep.MetricRel, sweep.Fig6: sweep.MetricThroughput,
		sweep.Fig6MS: sweep.MetricThroughput, sweep.SingleRun: sweep.MetricThroughput,
		patterns.KindBarrier:  patterns.MetricCyclesPerBarrier,
		patterns.KindRCU:      patterns.MetricWriterSyncCycles,
		patterns.KindCombLock: sweep.MetricThroughput,
	}
	// Fig. 5 on small puts two ratios at 16:0, which leave no matmul
	// worker to slow down: their zero is a layout fault of its own.
	zeroWorkers := func(k sweep.Kind, series string) bool {
		return k == sweep.Fig5 && (strings.HasPrefix(series, "colibri 16:0 [") ||
			strings.HasPrefix(series, "lrsc 16:0 ["))
	}
	grid := sweep.Grid{Policies: platform.PolicyNames()}
	var jobs []sweep.Job
	for _, k := range append(sweep.Kinds(), sweep.SingleRun, patterns.KindBarrier, patterns.KindRCU,
		patterns.KindCombLock) {
		if sc, _ := sweep.Lookup(string(k)); sc.Reads()&sweep.FieldGrid == 0 {
			continue
		}
		if primary[k] == "" {
			t.Fatalf("%s takes a policy grid but has no primary metric here", k)
		}
		j := sweep.Job{Kind: k, Topo: "small", Warmup: 1000, Measure: 4000, Grid: grid}
		if k == sweep.SingleRun {
			for _, kernel := range []string{"histogram", "queue", "msqueue", "matmul"} {
				j := j
				j.Params = map[string]string{"kernel": kernel}
				if kernel == "histogram" {
					j.Bins = []int{1, 16}
				}
				jobs = append(jobs, j)
			}
			continue
		}
		if k == sweep.Fig3 || k == sweep.Fig4 || k == sweep.Fig5 {
			// Histogram bins; the pattern kinds' Bins are active-core
			// counts and keep their default axis.
			j.Bins = []int{1, 16}
		}
		jobs = append(jobs, j)
	}
	results, _, err := (&sweep.Runner{}).RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		for _, s := range res.Series {
			for _, p := range s.Points {
				if _, ok := p.Metric(primary[res.Job.Kind]); !ok && !zeroWorkers(res.Job.Kind, s.Name) {
					t.Errorf("%s %v: %s at x=%d reads 0 %s and is not a not-run note",
						res.Job.Kind, res.Job.Params, s.Name, p.X, primary[res.Job.Kind])
				}
			}
		}
	}
	// A job none of whose pairs can run is refused whole.
	_, _, err = (&sweep.Runner{}).Run(sweep.Job{Kind: sweep.SingleRun, Topo: "small",
		Params: map[string]string{"kernel": "queue"}, Grid: sweep.Grid{Policies: []string{"plain"}}})
	if !errors.Is(err, sweep.ErrNotRun) {
		t.Errorf("queue under plain: err %v, want ErrNotRun", err)
	}
}
