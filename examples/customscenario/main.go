// Customscenario: an out-of-tree workload on the open Scenario API.
//
// The sweep engine doesn't know this experiment: it is defined here,
// registered through lrscwait.RegisterScenario, and from that moment is
// addressable by SweepJob.Kind exactly like the built-in paper kinds —
// with the worker pool, the policy grid, the content-hash disk cache and
// the JSON/CSV/table emitters, none of which this file implements.
//
// The workload itself is a core-scaling study the paper doesn't plot:
// how single-counter atomic-increment throughput grows (and saturates)
// as more cores participate, for either the retry-based LR/SC kernel or
// the polling-free LRwait/SCwait kernel on Colibri hardware. The kernel
// is selected with a free-form scenario parameter, and a custom
// "sleep_cycles" metric is reported next to the throughput.
//
// Run with: go run ./examples/customscenario
package main

import (
	"fmt"
	"log"
	"os"

	lrscwait "repro"
)

// coreScaling sweeps active-core counts against one contended counter.
// SweepJob.Bins doubles as the generic coordinate axis (active cores);
// Params["kernel"] selects "lrscwait" (default) or "lrsc".
type coreScaling struct{}

func (coreScaling) Name() string { return "core-scaling" }

// Reads declares the SweepJob fields read here; FieldGrid opts into -grid.
func (coreScaling) Reads() lrscwait.SweepField {
	return lrscwait.FieldBins | lrscwait.FieldWindows | lrscwait.FieldParams | lrscwait.FieldGrid
}

func (s coreScaling) Normalize(j lrscwait.SweepJob, topo lrscwait.Topology) (lrscwait.SweepJob, error) {
	if err := j.CheckParams("kernel"); err != nil {
		return j, err
	}
	j.DefaultWindows(1000, 4000)
	if len(j.Bins) == 0 {
		// Default coordinate sweep: powers of two up to the core count.
		for n := 1; n <= topo.NumCores(); n *= 2 {
			j.Bins = append(j.Bins, n)
		}
	}
	for _, n := range j.Bins {
		if n > topo.NumCores() {
			return j, fmt.Errorf("core-scaling: %d active cores exceed the %d-core topology",
				n, topo.NumCores())
		}
	}
	if _, _, err := s.kernel(j); err != nil {
		return j, err
	}
	return j, nil
}

// kernel resolves the Params["kernel"] selection.
func (coreScaling) kernel(j lrscwait.SweepJob) (lrscwait.HistVariant, lrscwait.PolicyKind, error) {
	switch j.Params["kernel"] {
	case "", "lrscwait":
		return lrscwait.HistLRSCWait, lrscwait.PolicyColibri, nil
	case "lrsc":
		return lrscwait.HistLRSC, lrscwait.PolicyLRSCSingle, nil
	default:
		return 0, "", fmt.Errorf("core-scaling: unknown kernel %q (have lrscwait, lrsc)",
			j.Params["kernel"])
	}
}

func (s coreScaling) Curves(topo lrscwait.Topology, j lrscwait.SweepJob) ([]lrscwait.ScenarioCurve, error) {
	variant, policy, err := s.kernel(j)
	if err != nil {
		return nil, err
	}
	name := j.Params["kernel"]
	if name == "" {
		name = "lrscwait"
	}
	return []lrscwait.ScenarioCurve{{
		Name: name, NumPoints: len(j.Bins), Sim: true,
		// The baseline policy: the kernel's hardware with the paper's
		// 128-cycle retry/spin backoff (a zero Backoff means none). The
		// engine overlays each grid coordinate on it and hands Key and
		// Run the effective policy.
		Policy: lrscwait.PolicyConfig{Kind: policy, Backoff: 128},
		// What the kernel needs of the policy: a grid coordinate whose
		// policy serves none of it is not run, only named in a note.
		Needs: variant.Needs(),
		// The cache-key fragment carries everything beyond the engine's
		// prefix (key namespace, which for a custom scenario is its
		// name; topology, windows, Params). It names what Run reads and
		// never a display label such as the curve's Name: the
		// active-core coordinate plus polKey, the engine's key fragment
		// of the FULL effective policy — every axis Run threads into the
		// platform, fully resolved, so a grid value that restates a
		// default (or that the policy ignores) hits the grid-free entry
		// while distinct effective policies can never collapse onto one
		// unit.
		Key: func(polKey string, pt int) string {
			return fmt.Sprintf("active%d|%s", j.Bins[pt], polKey)
		},
		Run: func(pol lrscwait.PolicyConfig, pt int) lrscwait.SweepPoint {
			nActive := j.Bins[pt]
			l := lrscwait.NewLayout(0)
			lay := lrscwait.NewHistLayout(l, 1, topo.NumCores()) // 1 bin = one counter
			prog := lrscwait.HistogramProgram(variant, lay, pol.Backoff, 0)
			idle := lrscwait.NewProgram()
			idle.Halt()
			idleProg := idle.MustBuild()
			sys := lrscwait.NewSystem(pol.Config(topo), func(core int) *lrscwait.Program {
				if core < nActive {
					return prog
				}
				return idleProg
			})
			act := sys.Measure(j.Windows())
			p := lrscwait.SweepPoint{X: nActive}
			p.SetMetric(lrscwait.MetricThroughput, act.Throughput())
			p.SetMetric("sleep_cycles", float64(act.SleepCycles))
			return p
		},
	}}, nil
}

func main() {
	if err := lrscwait.RegisterScenario(coreScaling{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered scenarios: %v\n\n", lrscwait.Scenarios())

	cacheDir, err := os.MkdirTemp("", "customscenario-cache-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(cacheDir)
	cache, err := lrscwait.OpenSweepCache(cacheDir)
	if err != nil {
		log.Fatal(err)
	}
	runner := lrscwait.SweepRunner{Cache: cache}

	// Two jobs, one shared worker pool: both kernels on the 16-core
	// machine, the LR/SC one additionally swept across a backoff grid.
	jobs := []lrscwait.SweepJob{
		{Kind: "core-scaling", Topo: "small"},
		{Kind: "core-scaling", Topo: "small",
			Params: map[string]string{"kernel": "lrsc"},
			Grid:   lrscwait.SweepGrid{Backoffs: []int{0, 128}}},
	}
	results, stats, err := runner.RunAll(jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold run:  %s\n", stats.Summary())

	// A warm re-run is served entirely from the disk cache.
	if _, stats, err = runner.RunAll(jobs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm run:  %s\n\n", stats.Summary())

	// Normalize refuses a Params key the scenario does not read, so a
	// misspelt one cannot run the default kernel under a key of its own.
	_, _, err = runner.RunAll([]lrscwait.SweepJob{{Kind: "core-scaling", Topo: "small",
		Params: map[string]string{"kernal": "lrsc"}}})
	if err == nil {
		log.Fatal("a misspelt param ran")
	}
	fmt.Printf("refused:   %v\n\n", err)

	// Every emitter works without this file defining any of them: the
	// generic metric table, CSV, and deterministic JSON.
	for _, res := range results {
		fmt.Println(res.Table().String())
	}
	j, err := results[0].JSON()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("JSON for the first job: %d bytes, deterministic — diff-able across runs\n", len(j))
}
