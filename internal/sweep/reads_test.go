package sweep_test

import (
	"strings"
	"testing"

	_ "repro/internal/patterns" // registers barrier, rcu and comblock
	"repro/internal/sweep"
)

// TestPaperKindsRefuseUnreadFields pins that every built-in kind
// refuses each optional Job field it does not read, instead of forking
// the cache identity of a run that ignores it, and accepts the ones it
// reads. The table is written out by hand, so it also checks each
// kind's Reads declaration.
func TestPaperKindsRefuseUnreadFields(t *testing.T) {
	const (
		hist    = "bins windows grid"
		pattern = "bins windows grid params"
	)
	reads := map[sweep.Kind]string{
		sweep.Fig3: hist, sweep.Fig4: hist, sweep.Fig5: hist + " matn",
		sweep.Fig6: "windows grid", sweep.Fig6MS: "windows grid",
		sweep.TableI: "cores", sweep.TableII: "windows",
		sweep.SingleRun: pattern, "barrier": pattern, "rcu": pattern, "comblock": pattern,
	}
	fields := []struct {
		name, refusal string
		set           func(j *sweep.Job)
	}{
		{"bins", "bins", func(j *sweep.Job) { j.Bins = []int{2} }},
		{"windows", "warmup/measure", func(j *sweep.Job) { j.Warmup = 5 }},
		{"matn", "matn", func(j *sweep.Job) { j.MatN = 64 }},
		{"cores", "cores", func(j *sweep.Job) { j.Cores = 64 }},
		{"grid", "policy-grid axes", func(j *sweep.Job) { j.Backoffs = []int{64} }},
		{"params", "params", func(j *sweep.Job) {
			// A parameter each kind that takes params accepts.
			if j.Kind == sweep.SingleRun {
				j.Params = map[string]string{"kernel": "histogram"}
			} else {
				j.Params = map[string]string{"wait": "spin"}
			}
		}},
	}
	if len(reads) != 11 {
		t.Fatalf("table covers %d kinds, want the 11 built-ins", len(reads))
	}
	for kind, read := range reads {
		for _, f := range fields {
			j := sweep.Job{Kind: kind, Topo: "small"}
			f.set(&j)
			_, err := j.Normalize()
			switch want := strings.Contains(read, f.name); {
			case want && err != nil:
				t.Errorf("%s refused %s: %v", kind, f.name, err)
			case !want && (err == nil || !strings.Contains(err.Error(), "takes no "+f.refusal)):
				t.Errorf("%s with %s: err = %v, want one saying it takes no %s", kind, f.name, err, f.refusal)
			}
		}
	}
}
