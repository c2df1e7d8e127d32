package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// spec is BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// winShare is the share of index-paired runs in which b reads better
// than a (ties count for neither side).
func winShare(a, b []float64, lowerBetter bool) float64 {
	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if (lowerBetter && b[i] < a[i]) || (!lowerBetter && b[i] > a[i]) {
			wins++
		}
	}
	return ratio(float64(wins), float64(n))
}

// verdict applies the gain and regression rules to the runs of a parent
// (a) and a change (b) of one metric on one workload:
//
//   - improved: b wins at least nine tenths of the pairs and the medians
//     differ by more than a's quartile spread;
//   - worse: b's median is worse than a's by more than the bound;
//   - unresolved: either side's quartile spread, as a share of its
//     median, is wider than the bound, unless every b run reads better
//     (then unchanged) or worse beyond the bound (then worse) than every
//     a run;
//   - unchanged otherwise.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	better := func(x, y float64) bool { // x reads better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	worse := (mb - ma) / ma
	if !lowerBetter {
		worse = -worse
	}
	if winShare(a, b, lowerBetter) >= 0.9 && better(mb, ma) && abs(mb-ma) > q3a-q1a {
		return "improved"
	}
	if (q3a-q1a)/abs(ma) > bound || (q3b-q1b)/abs(mb) > bound {
		switch {
		case allBetter(b, a, better):
			return "unchanged"
		case worse > bound && allBetter(a, b, better):
			return "worse"
		}
		return "unresolved"
	}
	if worse > bound {
		return "worse"
	}
	return "unchanged"
}

// allBetter reports whether every x reads better than every y.
func allBetter(x, y []float64, better func(float64, float64) bool) bool {
	for _, xv := range x {
		for _, yv := range y {
			if !better(xv, yv) {
				return false
			}
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareArgs splits "-a A... -b B..." into its parts.
func compareArgs(args []string) (a, b []string, err error) {
	var side *[]string
	for _, arg := range args {
		switch arg {
		case "-a", "--a":
			side = &a
		case "-b", "--b":
			side = &b
		default:
			if side == nil {
				return nil, nil, fmt.Errorf("bench compare: %q is not after -a or -b", arg)
			}
			*side = append(*side, arg)
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return nil, nil, errors.New("bench compare: usage: compare -a A1.json ... -b B1.json ...")
	}
	return a, b, nil
}

// runCompare compares two sets of run records, metric by metric and
// workload by workload, against the bounds in BENCHMARK.json at the
// repository root, where run.sh runs it. Records taken on different
// hosts or toolchains are refused: host speed is part of every number.
func runCompare(args []string, out io.Writer) error {
	aPaths, bPaths, err := compareArgs(args)
	if err != nil {
		return err
	}
	var sp spec
	if err := readJSON("BENCHMARK.json", &sp); err != nil {
		return err
	}
	load := func(paths []string) ([]record, error) {
		var recs []record
		for _, p := range paths {
			var r record
			if err := readJSON(p, &r); err != nil {
				return nil, err
			}
			recs = append(recs, r)
		}
		return recs, nil
	}
	a, err := load(aPaths)
	if err != nil {
		return err
	}
	b, err := load(bPaths)
	if err != nil {
		return err
	}
	return compareRecords(sp, a, b, out)
}

// runSet is one workload's runs on one side of a comparison.
type runSet struct {
	results           []*result
	missing           int // records without this workload
	failed, attempted int
}

func collect(recs []record, workload string) runSet {
	var s runSet
	for _, r := range recs {
		w, ok := r.Workloads[workload]
		if !ok {
			s.missing++
			continue
		}
		s.results = append(s.results, w)
		s.failed += w.Failed
		s.attempted += w.Attempted
	}
	return s
}

// values returns one metric of every run that has it, and how many runs
// lack it.
func (s runSet) values(metric string) (v []float64, missing int) {
	for _, r := range s.results {
		x, ok := r.Metrics[metric]
		if !ok {
			missing++
			continue
		}
		v = append(v, x)
	}
	return v, missing
}

// compareRecords prints one row per end-to-end metric and workload, with
// each side's failed operations. When B failed a larger share of its
// operations than A on a workload, every metric of that workload reads
// worse: a gain does not count when more operations fail. A workload or
// metric missing from some record is reported, not skipped.
func compareRecords(sp spec, a, b []record, out io.Writer) error {
	want := a[0].Host.comparable()
	for _, r := range append(slices.Clone(a), b...) {
		if got := r.Host.comparable(); got != want {
			return fmt.Errorf("bench compare: refusing to compare records from different hosts: %s vs %s", want, got)
		}
	}
	var names []string
	for _, r := range append(slices.Clone(a), b...) {
		for name := range r.Workloads {
			if !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	slices.Sort(names)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA q1\tA median\tA q3\tB q1\tB median\tB q3\tB won\tbound\tA failed\tB failed\tverdict")
	missing := func(w, metric string, nA, nB int) {
		fmt.Fprintf(tw, "%s\t%s\t%smissing from %d of %d A and %d of %d B records\n",
			w, metric, strings.Repeat("-\t", 10), nA, len(a), nB, len(b))
	}
	for _, w := range names {
		as, bs := collect(a, w), collect(b, w)
		if as.missing > 0 || bs.missing > 0 {
			missing(w, "all", as.missing, bs.missing)
			continue
		}
		moreFailed := ratio(float64(bs.failed), float64(bs.attempted)) > ratio(float64(as.failed), float64(as.attempted))
		for _, m := range sp.EndToEnd {
			av, nA := as.values(m.Name)
			bv, nB := bs.values(m.Name)
			if nA > 0 || nB > 0 {
				missing(w, m.Name, nA, nB)
				continue
			}
			q1a, ma, q3a := quartiles(av)
			q1b, mb, q3b := quartiles(bv)
			lower := m.Better == "lower"
			v := verdict(av, bv, lower, m.Bound)
			if moreFailed {
				v = "worse"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.0f%%\t%.0f%%\t%d/%d\t%d/%d\t%s\n",
				w, m.Name, q1a, ma, q3a, q1b, mb, q3b, 100*winShare(av, bv, lower), 100*m.Bound,
				as.failed, as.attempted, bs.failed, bs.attempted, v)
		}
	}
	return tw.Flush()
}
