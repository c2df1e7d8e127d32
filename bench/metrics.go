package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The catalogue below
// must match BENCHMARK.json (the smoke test checks both directions).
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports on every workload. Each
// workload defines its own unit of work and its own repeated operation
// (see README.md):
//
//	workload      work_rate, cpu_per_work_ms          latency_*
//	paper-sweep   warm passes                         warm pass
//	serve-mixed   requests                            cache-hit request
//	terapool-*    simulated cycles (CPU per 1000)     timed window
//
// setup_s is each workload's set-up; for paper-sweep that is the cold
// sweep. Every value is a median (or the 90th percentile) over the run,
// in reference-host time (see hostspeed.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"work_rate", "1/s"},
	{"cpu_per_work_ms", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

// perLayer is what a traced run reports. A metric of a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	// platform: the kernel, timed from outside around System calls.
	{"platform.visits_per_cycle", "1/cycle"},
	{"platform.slots_per_cycle", "1/cycle"},
	{"platform.routers_per_cycle", "1/cycle"},
	{"platform.banks_per_cycle", "1/cycle"},
	{"platform.deliv_per_cycle", "1/cycle"},
	{"platform.ns_per_visit", "ns"},
	{"platform.parks_per_cycle", "1/cycle"},
	{"platform.wakeheap_ops_per_cycle", "1/cycle"},
	{"platform.ff_share", "ratio"},
	{"platform.partitions", "count"},
	{"platform.fused_share", "ratio"},
	{"platform.parallel_speedup", "x"},
	{"platform.allocs_per_kcycle", "1/kcycle"},
	{"platform.gc_cycles", "count"},
	{"platform.new_ms", "ms"},
	{"platform.settle_ms", "ms"},
	{"obs.publish_us", "us"},

	// Layer probes on synthetic inputs.
	{"engine.barrier_rt_ns", "ns"},
	{"engine.fifo_pushpop_ns", "ns"},
	{"noc.router_tick_ns", "ns"},
	{"mem.bank_amo_ns", "ns"},

	// Host CPU share per source layer, from the CPU profile.
	{"host.share.platform", "ratio"},
	{"host.share.noc", "ratio"},
	{"host.share.mem", "ratio"},
	{"host.share.cpu", "ratio"},
	{"host.share.engine", "ratio"},
	{"host.share.colibri", "ratio"},
	{"host.share.reserve", "ratio"},
	{"host.share.sweep", "ratio"},
	{"host.share.fabric", "ratio"},
	{"host.share.stdlib", "ratio"},
	{"host.share.runtime", "ratio"},
	{"host.share.other", "ratio"},

	// Simulated machine, kernel workloads (fixed cycle span).
	{"sim.cpu.ipc", "instr/cycle"},
	{"sim.cpu.ops_per_cycle", "ops/cycle"},
	{"sim.cpu.busy_share", "ratio"},
	{"sim.cpu.memwait_share", "ratio"},
	{"sim.cpu.sleep_share", "ratio"},
	{"sim.cpu.pause_share", "ratio"},
	{"sim.cpu.stall_share", "ratio"},
	{"sim.cpu.issue_share", "ratio"},
	{"sim.cpu.wait_refusals", "count"},
	{"sim.noc.flits_per_cycle", "1/cycle"},
	{"sim.mem.accesses_per_cycle", "1/cycle"},
	{"sim.reserve.sc_success_ratio", "ratio"},
	{"sim.colibri.wakeups_per_op", "1/op"},
	{"sim.colibri.succ_updates_per_op", "1/op"},

	// Simulated machine, paper-sweep, and its error against the paper.
	{"sim.reserve.sc_success_ratio.lrsc", "ratio"},
	{"sim.reserve.sc_success_ratio.lrscwait", "ratio"},
	{"sim.reserve.sc_success_ratio.colibri", "ratio"},
	{"sim.ref.fig3_colibri_over_lrsc_1bin", "x"},
	{"sim.ref.fig3_colibri_over_lrsc_1bin_err_pct", "%"},
	{"sim.ref.energy_lrsc_over_colibri", "x"},
	{"sim.ref.energy_lrsc_over_colibri_err_pct", "%"},
	{"sim.ref.table2_err_pct.amoadd", "%"},
	{"sim.ref.table2_err_pct.colibri", "%"},
	{"sim.ref.table2_err_pct.lrsc", "%"},
	{"sim.ref.table2_err_pct.amoadd-lock", "%"},
	{"sim.ref.table1_err_pct_max", "%"},

	// sweep: runner, cache backend and emitters.
	{"sweep.cold_s", "s"},
	{"sweep.cold_cpu_s", "s"},
	{"sweep.worker_util", "ratio"},
	{"sweep.tail_s", "s"},
	{"sweep.point_s.fig3", "s"},
	{"sweep.point_s.fig4", "s"},
	{"sweep.point_s.fig5", "s"},
	{"sweep.point_s.fig6", "s"},
	{"sweep.point_s.table2", "s"},
	{"sweep.point_max_s", "s"},
	{"sweep.expand_ms", "ms"},
	{"sweep.cache.get_us.p50", "us"},
	{"sweep.cache.get_us.p99", "us"},
	{"sweep.cache.hit_ratio", "ratio"},
	{"sweep.cache.put_us.p50", "us"},
	{"sweep.cache.put_us.p99", "us"},
	{"sweep.emit.json_us", "us"},
	{"sweep.emit.csv_us", "us"},
	{"sweep.emit.table_us", "us"},

	// fabric: the HTTP service.
	{"fabric.requests", "count"},
	{"fabric.hits", "count"},
	{"fabric.misses", "count"},
	{"fabric.not_modified", "count"},
	{"fabric.coalesced", "count"},
	{"fabric.errors", "count"},
	{"fabric.revalidate_p50_ms", "ms"},
	{"fabric.hit_p99_ms", "ms"},
	{"fabric.hit_p999_ms", "ms"},
	{"fabric.miss_p50_ms", "ms"},
	{"fabric.gets_per_hit", "1/hit"},
	{"fabric.cache_share", "ratio"},

	{"trace.overhead_pct", "%"},
	{"host.calibration_ms", "ms"},
}

// result is what one workload run reports.
type result struct {
	Workload   string             `json:"workload"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Partitions int                `json:"partitions"`
	Metrics    map[string]float64 `json:"metrics"`
	Problems   []string           `json:"problems,omitempty"`
}

// maxProblems caps the failure descriptions a result carries.
const maxProblems = 10

// op counts one attempted operation, and a failure with its reason when
// ok is false.
func (r *result) op(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.problem(format, args...)
	}
}

// problem records a failure description.
func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// stepStats collects one timed step's end-to-end measurements, each
// normalized to the reference host (see hostspeed.go).
type stepStats struct {
	lat       []float64 // every recorded operation's latency, in ms
	rate, cpu []float64 // one per slice
}

// add records one slice of the timed step: its operations' latencies in
// milliseconds, the work its rate counts, the work its CPU cost is per,
// its wall and CPU time, and the host's slowness sampled just before it.
func (s *stepStats) add(latMs []float64, rateWork, cpuWork float64, wall, cpu time.Duration, slow float64) {
	if wall <= 0 || cpuWork <= 0 {
		return
	}
	for _, l := range latMs {
		s.lat = append(s.lat, l/slow)
	}
	s.rate = append(s.rate, rateWork/wall.Seconds()*slow)
	s.cpu = append(s.cpu, float64(cpu)/1e6/cpuWork/slow)
}

// report sets the timed step's rate and CPU cost as the median over its
// slices, and its latencies as the median and 90th percentile over all
// recorded operations.
func (s *stepStats) report(r *result) {
	r.set("work_rate", median(s.rate))
	r.set("cpu_per_work_ms", median(s.cpu))
	r.set("latency_p50_ms", quantile(s.lat, 0.5))
	r.set("latency_p90_ms", quantile(s.lat, 0.9))
}

// quantile returns the q-quantile of vals by linear interpolation
// between closest ranks; vals need not be sorted. 0 when empty.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(vals, n=4) does (its default
// "exclusive" method), so spreads here match the ones a Python check
// computes. It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// ratio divides, reading 0 when the denominator is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
