package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the emitter golden files from current output")

// TestGoldenEmitters is the emitter regression suite: each case runs a
// reduced deterministic sweep and compares the JSON, CSV and aligned-
// table renderings byte-for-byte against internal/sweep/testdata/.
// After an intentional simulator or emitter change, regenerate with
//
//	go test ./internal/sweep -run TestGoldenEmitters -update
//
// and review the diff like any other code change.
func TestGoldenEmitters(t *testing.T) {
	cases := []struct {
		name string
		job  Job
	}{
		// The default job pins the grid-free output format (and with it
		// the "no -grid flag means byte-identical output" guarantee).
		{"fig3-default", testJob(Fig3)},
		// One default case per remaining paper kind pins what the
		// per-figure invocations (-fig 4, -fig 5, -fig 6 -ms, -table 1)
		// print.
		{"fig4-default", testJob(Fig4)},
		{"fig5-default", testJob(Fig5)},
		{"fig6ms-default", testJob(Fig6MS)},
		{"table1-default", testJob(TableI)},
		// The grid job pins series labelling and ordering across a
		// queuecap × backoff cross-product.
		{"fig3-grid", gridTestJob()},
		// A fig6 colibriq grid covers the queue-kind key/label path.
		{"fig6-grid", Job{Kind: Fig6, Topo: "small",
			Warmup: testWarmup, Measure: testMeasure, Grid: Grid{ColibriQueues: []int{1, 8}}}},
		// A job setting all four grid axes pins where each axis,
		// "policies" included, sits in the job's JSON encoding.
		{"fig3-allaxes", Job{Kind: Fig3, Topo: "small", Bins: []int{1},
			Warmup: testWarmup, Measure: testMeasure, Grid: Grid{
				Policies: []string{"colibri", "lrscwait"}, QueueCaps: []int{1},
				ColibriQueues: []int{2}, Backoffs: []int{0}}}},
		// A table kind covers the finalize-time delta emitters.
		{"table2-default", testJob(TableII)},
		// A colibriq axis neither policy reads: recorded while every
		// coordinate still simulated, so it pins that collapsing the
		// duplicates changes no output byte of a series that runs.
		{"fig3-ignoredaxis", ignoredAxisJob()},
		// Four policies over two bin counts: recorded while every curve
		// still simulated its own baseline, so it pins that sharing one
		// baseline per (worker count, bins) changes no output byte.
		{"fig5-grid", fig5GridJob()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, _, err := (&Runner{Workers: 1}).Run(c.job)
			if err != nil {
				t.Fatal(err)
			}
			jsonB, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			outputs := []struct {
				ext string
				got []byte
			}{
				{"json", jsonB},
				{"csv", []byte(res.CSV())},
				{"txt", []byte(res.Table().String())},
			}
			for _, o := range outputs {
				path := filepath.Join("testdata", c.name+"."+o.ext)
				if *update {
					if err := os.WriteFile(path, o.got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
				}
				if !bytes.Equal(o.got, want) {
					t.Errorf("%s: output drifted from golden file\n--- got ---\n%s--- want ---\n%s",
						path, o.got, want)
				}
			}
		})
	}
}

// ignoredAxisJob sweeps colibriq, which neither of its policies reads,
// over two Fig. 3 bin counts. Of its 24 (curve, coordinate) pairs, 10
// cannot make progress (the four LRwait curves under lrsc, the LR/SC
// curve under lrscwait) and are notes, so 14 series hold 28 items: 12
// distinct simulations, because under lrscwait the colibri curve runs
// lrscwait-ideal's code and policy.
func ignoredAxisJob() Job {
	return Job{Kind: Fig3, Topo: "small", Bins: []int{1, 4},
		Warmup: testWarmup, Measure: testMeasure, Grid: Grid{
			Policies: []string{"lrsc", "lrscwait"}, ColibriQueues: []int{1, 4}}}
}

// fig5GridJob is Fig. 5 on small under four policies at two bin counts.
func fig5GridJob() Job {
	j := testJob(Fig5)
	j.Bins = []int{1, 4}
	j.Grid = Grid{Policies: []string{"lrsc", "lrscwait", "lrsc-table", "colibri"}}
	return j
}

// TestFig5OneBaselinePerWorkerCount checks that a Fig. 5 job simulates
// one baseline per (worker count, bin count), however many curves and
// policies divide by it. Every system runs exactly warmup + measure
// cycles, ticked or fast-forwarded, so the job's kernel cycles count its
// systems: one per loaded point plus the distinct baselines.
func TestFig5OneBaselinePerWorkerCount(t *testing.T) {
	job := fig5GridJob()
	_, st, err := (&Runner{Workers: 2}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := experiments.TopoByName(job.Topo)
	workers := map[int]bool{}
	for _, c := range experiments.Fig5Curves(topo.NumCores()) {
		workers[c.Ratio.Workers] = true
	}
	systems := st.Executed + len(workers)*len(job.Bins)
	got := st.Metrics.Counter("kernel.ticks") + st.Metrics.Counter("kernel.ff.cycles_saved")
	if want := uint64(systems * (testWarmup + testMeasure)); got != want {
		t.Errorf("kernel cycles = %d, want %d: %d loaded points and %d baselines of %d cycles",
			got, want, st.Executed, len(workers)*len(job.Bins), testWarmup+testMeasure)
	}
}

// TestIgnoredAxisSimulatedOnce checks that a grid value the policy
// ignores forks no simulation: the colibriq=1 and colibriq=4 items of
// each policy share one key, and so do two curves that differ only in
// their label, so the run executes 12 units for 28 items
// (TestGoldenEmitters/fig3-ignoredaxis pins the output bytes).
func TestIgnoredAxisSimulatedOnce(t *testing.T) {
	job := ignoredAxisJob()
	e, err := ExpandJob(job)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := (&Runner{Workers: 1}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Items) != 28 || st.Units != 12 || st.Executed != 12 {
		t.Errorf("%d items ran as %d units, %d executed; want 28 items, 12 units, 12 executed",
			len(e.Items), st.Units, st.Executed)
	}
}
