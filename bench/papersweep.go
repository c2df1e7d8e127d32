package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/sweep"
)

// paperKinds is the job set of `sweep -all`.
var paperKinds = []sweep.Kind{sweep.Fig3, sweep.Fig4, sweep.Fig5, sweep.Fig6, sweep.TableI, sweep.TableII}

// coldCalibrations is how many calibrations precede and follow the
// cold sweep; warmSlice is the warm passes one slice holds.
const (
	coldCalibrations = 5
	warmSlice        = 50
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func runPaperSweep(env *runEnv, r *result) error {
	topo := "mempool"
	if env.mini {
		topo = "small"
	}
	want := referenceData.PaperSweep[topo]
	var jobs []sweep.Job
	for _, k := range paperKinds {
		jobs = append(jobs, sweep.Job{Kind: k, Topo: topo})
	}
	// render returns every result's JSON, the bytes the CLI's -json
	// writes; verify compares them with the reference digests.
	render := func(results []*sweep.Result, parent, pass int) [][]byte {
		out := make([][]byte, len(results))
		for i, res := range results {
			sp := env.tr.begin("Result.JSON", parent, pass)
			out[i], _ = res.JSON() // a failed render leaves nil, which fails verify
			env.tr.end(sp)
		}
		return out
	}
	verify := func(results []*sweep.Result, bodies [][]byte, pass int) {
		for i, res := range results {
			got, ref := sha256Hex(bodies[i]), want[string(res.Job.Kind)]
			r.op(bodies[i] != nil && got == ref, "pass %d: %s JSON sha256 %s, reference %s", pass, res.Job.Kind, got, ref)
		}
	}

	// Set-up is a cold `sweep -all`: hash the binary for the cache keys,
	// open a fresh empty disk cache, and simulate and store every point.
	// It runs once: the hash is taken once per process, and the cold
	// sweep alone takes longer than the timed step. The host's slowness
	// over it is the median of samples taken before and after.
	runtime.GC()
	procs := runtime.GOMAXPROCS(0)
	var slow []float64
	for i := 0; i < coldCalibrations; i++ {
		slow = append(slow, env.clock.slowness(procs))
	}
	id := env.tr.begin("setup", 0, 0)
	t := time.Now()
	if sweep.Fingerprint() == "" {
		return fmt.Errorf("bench: the binary has no fingerprint, so the sweep cache is disabled")
	}
	dir, err := os.MkdirTemp("", "bench-paper-sweep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		return err
	}
	tb := newTimedBackend(cache, env.tr)
	runner := sweep.Runner{Workers: 2, Cache: cache}
	if env.tr != nil {
		runner.Cache = tb
	}
	te := time.Now()
	for _, j := range jobs {
		norm, err := j.Normalize()
		if err != nil {
			return err
		}
		if _, err := sweep.ExpandJob(norm); err != nil {
			return err
		}
	}
	expand := time.Since(te)
	sp := env.tr.begin("Runner.RunAll", id, 0)
	tb.parent.Store(int64(sp))
	cpuC, tc := cpuTime(), time.Now()
	results, st, err := runner.RunAll(jobs)
	env.tr.end(sp)
	if err != nil {
		return err
	}
	cold, coldCPU, setup := time.Since(tc), cpuTime()-cpuC, time.Since(t)
	env.tr.end(id)
	for i := 0; i < coldCalibrations; i++ {
		slow = append(slow, env.clock.slowness(procs))
	}
	r.set("setup_s", setup.Seconds()/median(slow))
	verify(results, render(results, 0, 0), 0)

	// Timed step: warm passes, each reading every point back and
	// rendering JSON, in slices of warmSlice passes.
	var step stepStats
	var sliceWall, sliceCPU time.Duration
	var sliceLat []float64
	sliceSlow := 1.0
	t = time.Now()
	slice := env.slice(warmSlice)
	for i := 0; i < minSlices*slice || i%slice != 0 || time.Since(t) < env.budget(); i++ {
		if i%slice == 0 {
			sliceSlow = env.clock.slowness(procs)
		}
		pass := env.tr.begin("warm pass", 0, i+1)
		cpu0, tp := cpuTime(), time.Now()
		sp := env.tr.begin("Runner.RunAll", pass, i+1)
		tb.parent.Store(int64(sp))
		res, _, err := runner.RunAll(jobs)
		env.tr.end(sp)
		if err != nil {
			return err
		}
		bodies := render(res, pass, i+1)
		d := time.Since(tp)
		sliceWall += d
		sliceCPU += cpuTime() - cpu0
		sliceLat = append(sliceLat, float64(d)/1e6)
		env.tr.end(pass)
		verify(res, bodies, i+1)
		if (i+1)%slice == 0 {
			step.add(sliceLat, float64(slice), float64(slice), sliceWall, sliceCPU, sliceSlow)
			sliceLat, sliceWall, sliceCPU = sliceLat[:0], 0, 0
		}
	}
	step.report(r)
	if env.tr == nil {
		return nil
	}

	setRunStats(r, st)
	r.set("sweep.cold_s", cold.Seconds())
	r.set("sweep.cold_cpu_s", coldCPU.Seconds())
	r.set("sweep.expand_ms", float64(expand)/1e6)
	gets, puts := tb.gets.latenciesUs(), tb.puts.latenciesUs()
	r.set("sweep.cache.get_us.p50", quantile(gets, 0.5))
	r.set("sweep.cache.get_us.p99", quantile(gets, 0.99))
	r.set("sweep.cache.hit_ratio", ratio(float64(tb.gets.hits.Load()), float64(len(gets))))
	r.set("sweep.cache.put_us.p50", quantile(puts, 0.5))
	r.set("sweep.cache.put_us.p99", quantile(puts, 0.99))
	emit := map[string][]float64{}
	for i := 0; i < minSlices*slice; i++ {
		for _, f := range []struct {
			name   string
			render func(*sweep.Result)
		}{
			{"sweep.emit.json_us", func(res *sweep.Result) { _, _ = res.JSON() }},
			{"sweep.emit.csv_us", func(res *sweep.Result) { _ = res.CSV() }},
			{"sweep.emit.table_us", func(res *sweep.Result) { _ = res.Table().String() }},
		} {
			t := time.Now()
			for _, res := range results {
				f.render(res)
			}
			emit[f.name] = append(emit[f.name], float64(time.Since(t))/1e3)
		}
	}
	for name, v := range emit {
		r.set(name, median(v))
	}
	for _, p := range []string{"lrsc", "lrscwait", "colibri"} {
		ok := float64(st.Metrics.Counter("kernel.policy." + p + ".sc_success"))
		bad := float64(st.Metrics.Counter("kernel.policy." + p + ".sc_fail"))
		r.set("sim.reserve.sc_success_ratio."+p, ratio(ok, ok+bad))
	}
	return setPaperRefs(r, results)
}

// setRunStats reports the worker pool's behaviour in the cold sweep,
// from the RunStats RunAll returns.
func setRunStats(r *result, st sweep.RunStats) {
	var busy time.Duration
	for _, b := range st.WorkerBusy {
		busy += b
	}
	r.set("sweep.worker_util", ratio(float64(busy), float64(st.Elapsed)*float64(st.Workers)))
	lastEnd := make([]time.Duration, st.Workers)
	perKind := map[string][]float64{}
	var maxPoint time.Duration
	for _, pt := range st.Timings {
		lastEnd[pt.Worker] = max(lastEnd[pt.Worker], pt.Start+pt.Dur)
		maxPoint = max(maxPoint, pt.Dur)
		if pt.Sim {
			perKind[pt.Kind] = append(perKind[pt.Kind], pt.Dur.Seconds())
		}
	}
	firstIdle := st.Elapsed
	for _, e := range lastEnd {
		firstIdle = min(firstIdle, e)
	}
	r.set("sweep.tail_s", (st.Elapsed - firstIdle).Seconds())
	r.set("sweep.point_max_s", maxPoint.Seconds())
	for _, k := range []string{"fig3", "fig4", "fig5", "fig6", "table2"} {
		r.set("sweep.point_s."+k, median(perKind[k]))
	}
}

// setPaperRefs reports the simulated results next to the paper's
// published values: the abstract's two headline ratios and the Table I
// and II errors.
func setPaperRefs(r *result, results []*sweep.Result) error {
	pub := referenceData.Published
	byKind := map[sweep.Kind]*sweep.Result{}
	for _, res := range results {
		byKind[res.Job.Kind] = res
	}
	fig3 := map[string]float64{}
	for _, s := range byKind[sweep.Fig3].Series {
		for _, p := range s.Points {
			if p.X == 1 {
				fig3[s.Name] = p.Throughput
			}
		}
	}
	if fig3["colibri"] == 0 || fig3["lrsc"] == 0 {
		return fmt.Errorf("bench: fig3 has no 1-bin colibri and lrsc points")
	}
	f3 := fig3["colibri"] / fig3["lrsc"]
	r.set("sim.ref.fig3_colibri_over_lrsc_1bin", f3)
	r.set("sim.ref.fig3_colibri_over_lrsc_1bin_err_pct", (f3/pub.Fig3ColibriOverLRSC1Bin-1)*100)

	pj := map[string]float64{}
	for _, p := range byKind[sweep.TableII].Series[0].Points {
		pj[p.Label] = p.PJPerOp
	}
	if pj["colibri"] == 0 {
		return fmt.Errorf("bench: table2 has no colibri row")
	}
	e := pj["lrsc"] / pj["colibri"]
	r.set("sim.ref.energy_lrsc_over_colibri", e)
	r.set("sim.ref.energy_lrsc_over_colibri_err_pct", (e/pub.EnergyLRSCOverColibri-1)*100)
	for row, paper := range pub.Table2PJ {
		r.set("sim.ref.table2_err_pct."+row, (pj[row]/paper-1)*100)
	}

	worst := 0.0
	for _, p := range byKind[sweep.TableI].Series[0].Points {
		for _, ref := range pub.Table1KGE {
			if ref.Label == p.Label && ref.Params == p.Params {
				worst = math.Max(worst, math.Abs(p.AreaKGE/ref.KGE-1)*100)
			}
		}
	}
	r.set("sim.ref.table1_err_pct_max", worst)
	return nil
}
