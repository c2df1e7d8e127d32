package sweep

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/noc"
	"repro/internal/platform"
)

func TestRunNormalize(t *testing.T) {
	for _, c := range []struct {
		name    string
		job     Job
		params  map[string]string
		bins    []int
		refused string // substring of the error; "" = accepted
	}{
		{"default", Job{}, map[string]string{"kernel": "histogram", "variant": "lrscwait"}, []int{16}, ""},
		{"histogram variant and bins", Job{Bins: []int{1, 4},
			Params: map[string]string{"variant": "lrsc"}},
			map[string]string{"kernel": "histogram", "variant": "lrsc"}, []int{1, 4}, ""},
		{"queue", Job{Params: map[string]string{"kernel": "queue"}},
			map[string]string{"kernel": "queue"}, nil, ""},
		{"matmul", Job{Params: map[string]string{"kernel": "matmul"}},
			map[string]string{"kernel": "matmul"}, nil, ""},
		{"msqueue variant", Job{Params: map[string]string{"kernel": "msqueue", "variant": "lrsc"}},
			nil, nil, "takes no variant"},
		{"queue variant", Job{Params: map[string]string{"kernel": "queue", "variant": "lrscwait"}},
			nil, nil, "takes no variant"},
		{"matmul bins", Job{Bins: []int{4}, Params: map[string]string{"kernel": "matmul"}},
			nil, nil, "takes no bins"},
		{"unknown kernel", Job{Params: map[string]string{"kernel": "fft"}}, nil, nil, "unknown kernel"},
		{"unknown variant", Job{Params: map[string]string{"variant": "cas"}}, nil, nil, "unknown histogram variant"},
		{"unknown param", Job{Params: map[string]string{"iters": "5"}}, nil, nil, "unknown param"},
		{"matn", Job{MatN: 8}, nil, nil, "no matn"},
		{"zero bins", Job{Bins: []int{0}}, nil, nil, "bad bin count"},
	} {
		t.Run(c.name, func(t *testing.T) {
			j := c.job
			j.Kind, j.Topo = SingleRun, "small"
			n, err := j.Normalize()
			if c.refused != "" {
				if err == nil || !strings.Contains(err.Error(), c.refused) {
					t.Fatalf("err = %v, want one containing %q", err, c.refused)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(n.Params, c.params) || !reflect.DeepEqual(n.Bins, c.bins) {
				t.Errorf("normalized params %v bins %v, want %v %v", n.Params, n.Bins, c.params, c.bins)
			}
			if n.Warmup != defaultRunWarmup || n.Measure != defaultRunMeasure {
				t.Errorf("windows %d/%d, want %d/%d", n.Warmup, n.Measure, defaultRunWarmup, defaultRunMeasure)
			}
		})
	}
}

// TestRunTitleNamesCodeThatRan pins the title of a single run to the
// code the kernel executed under the policy, not the default variant.
func TestRunTitleNamesCodeThatRan(t *testing.T) {
	for _, c := range []struct {
		kernel, policy, want string
	}{
		{"msqueue", "lrsc", "msqueue/lrsc on small (16 cores, policy lrsc)"},
		{"msqueue", "colibri", "msqueue/lrscwait on small (16 cores, policy colibri)"},
		{"queue", "lrsc-table", "queue/lrsc on small (16 cores, policy lrsc-table)"},
		{"queue", "lrscwait", "queue/lrscwait on small (16 cores, policy lrscwait)"},
		{"matmul", "colibri", "matmul on small (16 cores, policy colibri)"},
	} {
		job := Job{Kind: SingleRun, Topo: "small", Warmup: testWarmup, Measure: testMeasure,
			Params: map[string]string{"kernel": c.kernel}, Grid: Grid{Policies: []string{c.policy}}}
		res, _, err := (&Runner{Workers: 1}).Run(job)
		if err != nil {
			t.Fatal(err)
		}
		tbl := res.Table()
		if tbl.Title != c.want {
			t.Errorf("%s under %s: title %q, want %q", c.kernel, c.policy, tbl.Title, c.want)
		}
		if len(tbl.Header) != 2 || tbl.Header[1] != "value" || len(tbl.Rows) != 1+len(runRows)+2 {
			t.Errorf("%s under %s: header %v with %d rows", c.kernel, c.policy, tbl.Header, len(tbl.Rows))
		}
	}
}

// TestRunPointParity checks a run point against the experiments runner
// it wraps, and that a policy with its own energy constants is costed
// with them.
func TestRunPointParity(t *testing.T) {
	registerAreaHookPolicy()
	topo := noc.Small()
	for _, name := range []string{"colibri", "hook-test"} {
		job := Job{Kind: SingleRun, Topo: "small", Bins: []int{2}, Warmup: testWarmup, Measure: testMeasure,
			Params: map[string]string{"variant": "amoadd"}, Grid: Grid{Policies: []string{name}}}
		res, _, err := (&Runner{Workers: 1}).Run(job)
		if err != nil {
			t.Fatal(err)
		}
		pol := experiments.PaperPolicy(platform.PolicyKind(name))
		act := experiments.RunHistogramPoint(experiments.HistSpec{Variant: kernels.HistAmoAdd, Policy: pol},
			topo, 2, testWarmup, testMeasure).Activity
		p := res.Series[0].Points[0]
		lo, hi := act.MinMaxOps()
		if p.Throughput != act.Throughput() || p.Extra["instrs"] != float64(act.Instrs) ||
			p.Extra["ops_min"] != float64(lo) || p.Extra["ops_max"] != float64(hi) {
			t.Errorf("%s: point %+v disagrees with the direct run %+v", name, p, act)
		}
		if want := policyEnergy(pol, topo).PerOpPJ(act); p.PJPerOp != want || want == 0 {
			t.Errorf("%s: %v pJ/op, want %v", name, p.PJPerOp, want)
		}
	}
	if policyEnergy(experiments.PaperPolicy("hook-test"), topo) != hookEnergy {
		t.Error("the hook policy's energy constants are not used")
	}
}
