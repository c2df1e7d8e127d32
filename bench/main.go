// Command bench is the repository's end-to-end benchmark. It runs four
// named workloads, each in its own child process with GOMAXPROCS equal
// to the host's CPU count, checks every output for correctness, and
// prints every end-to-end metric as "workload metric value unit". It
// only calls public functions of the simulator's layers and times those
// calls from outside.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace DIR] [-json FILE]
//	bash bench/run.sh compare -a A1.json ... -b B1.json ...
//
// With -workload the last line of standard output is one JSON object
// holding correct, attempted, failed and the metrics. -trace adds a
// traced run per workload, which writes DIR/<workload>.trace.json
// (Chrome trace events) and DIR/<workload>.pprof, and reports the
// per-layer metrics. -json writes the run record compare reads.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/kernels"
	"repro/internal/platform"
)

// workloads are run in this order. See README.md for why each exists.
var workloads = []struct {
	name string
	run  func(*runEnv, *result) error
}{
	{"paper-sweep", runPaperSweep},
	{"serve-mixed", runServeMixed},
	{"terapool-hot", kernelWorkload{
		policy: platform.PolicyPlain, variant: kernels.HistAmoAdd, bins: 256,
		window: 500, miniWindow: 200, slice: 8,
	}.run},
	{"terapool-colibri", kernelWorkload{
		policy: platform.PolicyColibri, variant: kernels.HistLRSCWait, bins: 1, backoff: 128,
		window: 5_000, miniWindow: 5_000, slice: 20,
	}.run},
}

// runEnv is what a workload run is given.
type runEnv struct {
	seed    uint64
	seconds float64 // timed-step budget
	mini    bool    // smoke-test scale: small topology, few set-ups and operations
	tr      *tracer // nil when untraced
	clock   *hostClock
}

// rng returns the run's input generator; the same seed gives the same
// inputs.
func (e *runEnv) rng() *rand.Rand { return rand.New(rand.NewPCG(e.seed, 0x6c72736377616974)) }

func (e *runEnv) budget() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// setups is how many times a workload sets up; the median of their
// times is reported.
func (e *runEnv) setups(n int) int {
	if e.mini {
		return 1
	}
	return n
}

// minSlices is the fewest slices a timed step holds, however slow the
// host.
const minSlices = 3

// slice scales a slice's operation count to the run's size.
func (e *runEnv) slice(n int) int {
	if e.mini {
		return 2
	}
	return n
}

// warmup is the served workload's unrecorded head of requests.
func (e *runEnv) warmup() int {
	if e.mini {
		return 100
	}
	return serveWarmup
}

// roundRequests is how many requests one serving round holds.
func (e *runEnv) roundRequests() int {
	if e.mini {
		return serveBlock
	}
	return serveRoundBlocks * serveBlock
}

func (e *runEnv) kernelTopoName() string {
	if e.mini {
		return "small"
	}
	return "terapool"
}

// runWorkload runs one workload in this process.
func runWorkload(name string, env *runEnv) (*result, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		r := &result{Workload: name, GOMAXPROCS: runtime.GOMAXPROCS(0), Partitions: 1}
		cal, err := newCalibration()
		if err != nil {
			return nil, err
		}
		defer cal.close()
		env.clock = &hostClock{task: cal}
		if err := w.run(env, r); err != nil {
			return nil, err
		}
		r.set("host.calibration_ms", median(env.clock.samples))
		if env.tr != nil {
			runProbes(r, env.mini)
		}
		r.Correct = r.Failed == 0 && r.Attempted > 0
		return r, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// childMain runs one workload and writes its result as JSON on
// standard output.
func childMain(name string, env *runEnv, traceDir string) error {
	var profile string
	if traceDir != "" {
		env.tr = newTracer()
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		profile = filepath.Join(traceDir, name+".pprof")
		f, err := os.Create(profile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	r, err := runWorkload(name, env)
	if traceDir != "" {
		pprof.StopCPUProfile()
		if err == nil {
			err = env.tr.writeChrome(filepath.Join(traceDir, name+".trace.json"))
		}
		if err == nil {
			var shares map[string]float64
			shares, err = hostShares(profile)
			for _, l := range shareLayers {
				r.set("host.share."+l, shares[l])
			}
		}
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// childTimeout bounds one child process; a run must end well inside the
// 180 seconds a benchmark invocation is allowed.
const childTimeout = 170 * time.Second

// runChild runs one workload in a fresh process and adds its peak
// resident memory, less the calibration task's, to the result.
func runChild(name string, seed uint64, seconds float64, traceDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if traceDir != "" {
		args = append(args, "-trace", traceDir)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench: %s child: %w", name, err)
	}
	var r result
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("bench: %s child printed no result: %w", name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		// Linux reports KiB. The child runs with GOMAXPROCS=NumCPU.
		r.set("peak_rss_mb", float64(ru.Maxrss)/1024-float64(calibrationBytes(runtime.NumCPU()))/(1<<20))
	}
	return &r, nil
}

// hostFacts identify the machine and build a record was taken on.
type hostFacts struct {
	CPUModel   string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	GitRev     string         `json:"git_rev"`
	GitDirty   bool           `json:"git_dirty"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Partitions map[string]int `json:"partitions"`
}

// comparable reports the facts two records must share to be compared.
func (h hostFacts) comparable() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion)
}

func readHostFacts(seed uint64, seconds float64) hostFacts {
	h := hostFacts{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.NumCPU(), GoVersion: runtime.Version(),
		GitRev: "unknown", Seed: seed, Seconds: seconds, Partitions: map[string]int{}}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.GitRev = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			h.GitDirty = len(bytes.TrimSpace(out)) > 0
		}
	}
	return h
}

// record is what -json writes and compare reads.
type record struct {
	Host      hostFacts          `json:"host"`
	Workloads map[string]*result `json:"workloads"`
}

// metricOut is one metric of the final JSON line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	workload := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "timed-step budget per workload, in seconds")
	traceDir := flag.String("trace", "", "also run each workload traced, writing its Chrome trace and CPU profile into this directory")
	jsonOut := flag.String("json", "", "write the run record (host facts and every metric) to this file")
	child := flag.String("child", "", "internal: run one workload in this process")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *child != "" {
		env := &runEnv{seed: *seed, seconds: *seconds}
		if err := childMain(*child, env, *traceDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	ok, err := run(*workload, *seed, *seconds, *traceDir, *jsonOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run drives the workloads one at a time and reports whether every
// output was correct.
func run(only string, seed uint64, seconds float64, traceDir, jsonOut string) (bool, error) {
	var names []string
	for _, w := range workloads {
		if only == "" || w.name == only {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("bench: unknown workload %q", only)
	}
	if traceDir != "" {
		abs, err := filepath.Abs(traceDir)
		if err != nil {
			return false, err
		}
		traceDir = abs
	}
	rec := record{Host: readHostFacts(seed, seconds), Workloads: map[string]*result{}}
	allOK := true
	var last *result
	for _, name := range names {
		r, err := runChild(name, seed, seconds, "")
		if err != nil {
			return false, err
		}
		if traceDir != "" {
			tr, err := runChild(name, seed, seconds, traceDir)
			if err != nil {
				return false, err
			}
			tr.set("trace.overhead_pct", (ratio(r.Metrics["work_rate"], tr.Metrics["work_rate"])-1)*100)
			for _, d := range perLayer {
				r.set(d.name, tr.Metrics[d.name])
			}
			r.Attempted += tr.Attempted
			r.Failed += tr.Failed
			r.Correct = r.Correct && tr.Correct
			r.Problems = append(r.Problems, tr.Problems...)
		}
		rec.Workloads[name] = r
		rec.Host.GOMAXPROCS = r.GOMAXPROCS
		rec.Host.Partitions[name] = r.Partitions
		defs := endToEnd
		if traceDir != "" {
			defs = append(slices.Clone(endToEnd), perLayer...)
		}
		for _, d := range defs {
			fmt.Printf("%s %s %s %s\n", name, d.name, fmtValue(r.Metrics[d.name]), d.unit)
		}
		for _, p := range r.Problems {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, p)
		}
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", name, r.Failed, r.Attempted)
			allOK = false
		}
		last = r
	}
	h := rec.Host
	fmt.Printf("host cpu_model=%q nproc=%d gomaxprocs=%d go=%s rev=%s dirty=%t seed=%d partitions=%v\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.GitRev, h.GitDirty, h.Seed, h.Partitions)
	if jsonOut != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	if only != "" {
		defs := endToEnd
		if traceDir != "" {
			defs = perLayer
		}
		metrics := map[string]metricOut{}
		for _, d := range defs {
			metrics[d.name] = metricOut{Value: last.Metrics[d.name], Unit: d.unit}
		}
		b, err := json.Marshal(map[string]any{
			"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": metrics,
		})
		if err != nil {
			return false, err
		}
		fmt.Println(string(b))
	}
	return allOK, nil
}
