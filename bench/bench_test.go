package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func readSpec(t *testing.T) spec {
	t.Helper()
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecMatchesCatalogue checks BENCHMARK.json against the metrics and
// workloads this program reports: same names, same units, within the
// limits the file format allows.
func TestSpecMatchesCatalogue(t *testing.T) {
	sp := readSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	seen := map[string]bool{}
	check := func(kind, name, unit string, defs []metricDef) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s metric %q: bad or repeated name", kind, name)
		}
		seen[name] = true
		for _, d := range defs {
			if d.name == name {
				if d.unit != unit {
					t.Errorf("%s metric %s: BENCHMARK.json unit %q, program unit %q", kind, name, unit, d.unit)
				}
				return
			}
		}
		t.Errorf("%s metric %s is in BENCHMARK.json but the program does not report it", kind, name)
	}
	for _, m := range sp.EndToEnd {
		check("end-to-end", m.Name, m.Unit, endToEnd)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range sp.PerLayer {
		check("per-layer", m.Name, m.Unit, perLayer)
	}
	if len(seen) != len(endToEnd)+len(perLayer) {
		t.Errorf("BENCHMARK.json names %d metrics, the program reports %d", len(seen), len(endToEnd)+len(perLayer))
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), program has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
}

// unitOf returns the catalogue unit of a metric.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// addedOutsideWorkloads are set by the parent process, not by the
// workload: peak memory, and the tracing cost from the traced and
// untraced pair. The host.share.* metrics come from the child's CPU
// profile, which the smoke test does not take.
var addedOutsideWorkloads = map[string]bool{"peak_rss_mb": true, "trace.overhead_pct": true}

// TestWorkloadsMini runs every workload at smoke-test scale, traced:
// every output must check out, every metric must be reported by some
// workload, the trace must load, and the simulated-machine statistics
// must repeat exactly.
func TestWorkloadsMini(t *testing.T) {
	reported := map[string]bool{}
	for _, w := range workloads {
		run := func() *result {
			env := &runEnv{seed: 1, seconds: 0.2, mini: true, tr: newTracer()}
			r, err := runWorkload(w.name, env)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !r.Correct {
				t.Fatalf("%s: %d of %d operations failed: %v", w.name, r.Failed, r.Attempted, r.Problems)
			}
			path := filepath.Join(t.TempDir(), w.name+".trace.json")
			if err := env.tr.writeChrome(path); err != nil {
				t.Fatal(err)
			}
			var trace struct{ TraceEvents []traceEvent }
			if b, err := os.ReadFile(path); err != nil || json.Unmarshal(b, &trace) != nil || len(trace.TraceEvents) == 0 {
				t.Errorf("%s: trace %s does not load (%v)", w.name, path, err)
			}
			return r
		}
		first := run()
		for name, v := range first.Metrics {
			if unitOf(name) == "" {
				t.Errorf("%s reports %s, which is in no catalogue", w.name, name)
			}
			if v != 0 {
				reported[name] = true
			}
		}
		for _, d := range endToEnd {
			if _, ok := first.Metrics[d.name]; !ok && !addedOutsideWorkloads[d.name] {
				t.Errorf("%s does not report end-to-end metric %s", w.name, d.name)
			}
		}
		if w.name == "serve-mixed" {
			continue // no simulated-machine statistics
		}
		second := run()
		for name, v := range first.Metrics {
			if strings.HasPrefix(name, "sim.") && second.Metrics[name] != v {
				t.Errorf("%s: %s is %v, then %v on the same seed", w.name, name, v, second.Metrics[name])
			}
		}
	}
	for _, d := range perLayer {
		if !reported[d.name] && !addedOutsideWorkloads[d.name] && !strings.HasPrefix(d.name, "host.share.") &&
			!zeroAtMiniScale[d.name] {
			t.Errorf("no workload reports per-layer metric %s", d.name)
		}
	}
}

// zeroAtMiniScale are per-layer metrics that read 0 on the small
// topology's short runs: no fast-forwarded spans, fused epochs, wake
// heap traffic or refused waits, no core-cycles lost to issue, pause or
// stalls, no allocation or garbage collection in the kernel, and no
// failed or coalesced requests.
var zeroAtMiniScale = map[string]bool{
	"platform.ff_share": true, "platform.fused_share": true, "platform.wakeheap_ops_per_cycle": true,
	"platform.gc_cycles": true, "platform.allocs_per_kcycle": true, "sim.cpu.wait_refusals": true,
	"sim.cpu.issue_share": true, "sim.cpu.pause_share": true, "sim.cpu.stall_share": true, "fabric.errors": true,
	"fabric.coalesced": true,
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 3 values = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"faster rate", base, scale(1.2), false, "improved"},
		{"same rate", base, base, false, "unchanged"},
		{"small slowdown inside the bound", base, scale(0.95), false, "unchanged"},
		{"slower rate", base, scale(0.8), false, "worse"},
		{"longer latency", base, scale(1.2), true, "worse"},
		{"shorter latency", base, scale(0.8), true, "improved"},
		{"spread wider than the bound", wide, scale(0.97), false, "unresolved"},
		{"wide but every run slower", wide, scale(0.5), false, "worse"},
	} {
		if got := verdict(tc.a, tc.b, tc.lower, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	rec := func(cpu string) record {
		return record{
			Host:      hostFacts{CPUModel: cpu, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
			Workloads: map[string]*result{"w": {Metrics: map[string]float64{"work_rate": 1}}},
		}
	}
	sp := readSpec(t)
	var out strings.Builder
	if err := compareRecords(sp, []record{rec("a")}, []record{rec("a")}, &out); err != nil {
		t.Fatalf("same host: %v", err)
	}
	if !strings.Contains(out.String(), "unchanged") {
		t.Errorf("same records compare as\n%s", out.String())
	}
	if err := compareRecords(sp, []record{rec("a")}, []record{rec("b")}, &out); err == nil {
		t.Error("records from different CPUs were compared")
	}
}

// TestCompareCountsFailures checks that a B side which got faster but
// failed more operations reads worse, and that a workload missing from a
// record is reported rather than skipped.
func TestCompareCountsFailures(t *testing.T) {
	rec := func(rate float64, failed int, workloads ...string) record {
		r := record{
			Host:      hostFacts{CPUModel: "a", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
			Workloads: map[string]*result{},
		}
		for _, w := range workloads {
			m := map[string]float64{}
			for _, d := range endToEnd {
				m[d.name] = 1
			}
			m["work_rate"] = rate
			r.Workloads[w] = &result{Attempted: 100, Failed: failed, Metrics: m}
		}
		return r
	}
	row := func(out, workload, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == workload && f[1] == metric {
				return line
			}
		}
		t.Fatalf("no %s %s row in\n%s", workload, metric, out)
		return ""
	}
	sp := readSpec(t)
	a := []record{rec(100, 0, "w", "x"), rec(100, 0, "w", "x")}
	for _, tc := range []struct {
		name string
		b    []record
		want string
	}{
		{"faster, nothing failed", []record{rec(200, 0, "w", "x"), rec(200, 0, "w", "x")}, "improved"},
		{"faster, one operation failed", []record{rec(200, 1, "w", "x"), rec(200, 0, "w", "x")}, "worse"},
	} {
		var out strings.Builder
		if err := compareRecords(sp, a, tc.b, &out); err != nil {
			t.Fatal(err)
		}
		if got := row(out.String(), "w", "work_rate"); !strings.HasSuffix(got, tc.want) {
			t.Errorf("%s: row %q, want verdict %s", tc.name, got, tc.want)
		}
	}
	var out strings.Builder
	if err := compareRecords(sp, a, []record{rec(100, 0, "w", "x"), rec(100, 0, "w")}, &out); err != nil {
		t.Fatal(err)
	}
	if got := row(out.String(), "x", "all"); !strings.HasSuffix(got, "missing from 0 of 2 A and 1 of 2 B records") {
		t.Errorf("workload absent from one B record: row %q", got)
	}
}

func TestHostShares(t *testing.T) {
	for file, want := range map[string]string{
		"repro@v0.0.0/internal/noc/router.go":        "noc",
		"repro@v0.0.0/internal/sweep/work/pool.go":   "sweep",
		"repro@v0.0.0/internal/kernels/histogram.go": "other",
		"repro/bench/main.go":                        "other",
		"runtime/proc.go":                            "runtime",
		"internal/runtime/atomic/types.go":           "runtime",
		"net/http/server.go":                         "stdlib",
		"<unknown>":                                  "other",
	} {
		if got := layerOf(file); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", file, got, want)
		}
	}
	top := []byte(`Showing nodes accounting for 4s, 100% of 4s total
      flat  flat%   sum%        cum   cum%
     2.50s 62.50% 62.50%      3.20s 80.00%  repro@v0.0.0/internal/noc/router.go
     500ms 12.50% 75.00%      0.57s 14.25%  runtime/proc.go
     0.50s 12.50% 87.50%      0.50s 12.50%  repro@v0.0.0/internal/engine/fifo.go (inline)
     0.50s 12.50%   100%      0.50s 12.50%  net/http/transport.go
`)
	shares, err := parseTopFiles(top)
	if err != nil {
		t.Fatal(err)
	}
	for layer, want := range map[string]float64{"noc": 0.625, "runtime": 0.125, "engine": 0.125, "stdlib": 0.125} {
		if shares[layer] != want {
			t.Errorf("share of %s = %v, want %v", layer, shares[layer], want)
		}
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{name: "parent", start: 0, end: 10},
		{name: "a", start: 1, end: 4, parent: 1},
		{name: "b", start: 3, end: 6, parent: 1}, // overlaps a: ran on another goroutine
		{name: "c", start: 8, end: 9, parent: 1},
	}
	if self := selfTimes(spans); self[0] != 4 || self[1] != 3 {
		t.Errorf("self times %v, want parent 4 (10 minus the union [1,6] and [8,9]) and a 3", self)
	}
	lane := lanes(spans)
	if lane[1] != lane[0] || lane[2] == lane[1] {
		t.Errorf("lanes %v: a should nest in its parent's lane, b (overlapping a) should not", lane)
	}
}
