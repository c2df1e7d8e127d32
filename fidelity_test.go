package lrscwait_test

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/area"
	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/sweep"
)

// published is the paper's numbers as the benchmark's reference file
// records them. The test reads that file, and never writes it, so the
// numbers keep one home outside the code under test.
type published struct {
	Table1KGE []struct {
		Label  string  `json:"label"`
		Params string  `json:"params"`
		KGE    float64 `json:"kge"`
	} `json:"table1_kge"`
	Table2PJ                map[string]float64 `json:"table2_pj"`
	Fig3ColibriOverLRSC1Bin float64            `json:"fig3_colibri_over_lrsc_1bin"`
	EnergyLRSCOverColibri   float64            `json:"energy_lrsc_over_colibri"`
}

func readPublished(t *testing.T) published {
	t.Helper()
	b, err := os.ReadFile("bench/testdata/reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		Published published `json:"published"`
	}
	if err := json.Unmarshal(b, &ref); err != nil {
		t.Fatal(err)
	}
	return ref.Published
}

// fidelityBands holds, per claim, the band its error against the paper
// (model/paper - 1, in percent) must stay inside: the error measured
// at mempool when the test landed, rounded outward to 5 percentage
// points; an error that is exactly a multiple of 5 gets 5 points on
// either side. A change may tighten a band; one that needs a band
// widened moves a paper result and says so.
var fidelityBands = map[string][2]float64{
	"table1 MemPool tile (none)":               {-5, 5},
	"table1 with LRSCwait1 (1 queue slot)":     {0, 5},
	"table1 with LRSCwait8 (8 queue slots)":    {0, 5},
	"table1 with Colibri+Mwait (1 address)":    {0, 5},
	"table1 with Colibri+Mwait (2 addresses)":  {-5, 0},
	"table1 with Colibri+Mwait (4 addresses)":  {0, 5},
	"table1 with Colibri+Mwait (8 addresses)":  {-5, 0},
	"table2 amoadd pJ/op":                      {-60, -55},
	"table2 colibri pJ/op":                     {-10, -5},
	"table2 lrsc pJ/op":                        {5, 10},
	"table2 amoadd-lock pJ/op":                 {255, 260},
	"energy per op, lrsc / colibri":            {10, 15},
	"fig3 throughput at 1 bin, colibri / lrsc": {120, 125},
}

// TestPaperFidelity runs the paper's headline rows at mempool (256
// cores) and asserts each one's error against the published value
// inside its band. It also pins the two in-code copies of the
// published numbers, Table I's paper column and the Table II
// reference, to the reference file, so the copies cannot drift apart.
// Run with -v to print the error table.
func TestPaperFidelity(t *testing.T) {
	pub := readPublished(t)
	const topo = "mempool"

	errs := map[string]float64{}
	claim := func(name string, model, paper float64) {
		errs[name] = (model/paper - 1) * 100
		t.Logf("%-42s model %10.4f  paper %8.1f  error %+8.2f%%", name, model, paper, errs[name])
	}

	// Table I: the area model's rows that the paper reports.
	var rows []area.Row
	for _, r := range area.TableI(area.Default(), noc.MemPool256().NumCores()) {
		if r.PaperKGE > 0 {
			rows = append(rows, r)
		}
	}
	if len(rows) != len(pub.Table1KGE) {
		t.Fatalf("Table I has %d paper rows, the reference file %d", len(rows), len(pub.Table1KGE))
	}
	for i, r := range rows {
		ref := pub.Table1KGE[i]
		if r.Design != ref.Label || r.Params != ref.Params || r.PaperKGE != ref.KGE {
			t.Errorf("Table I paper row %d is %s (%s) %v kGE, the reference file says %s (%s) %v",
				i, r.Design, r.Params, r.PaperKGE, ref.Label, ref.Params, ref.KGE)
		}
		claim("table1 "+ref.Label+" ("+ref.Params+")", r.AreaKGE, ref.KGE)
	}

	// Table II: energy per operation at the highest contention.
	res, _, err := (&sweep.Runner{}).Run(sweep.Job{Kind: sweep.TableII, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	pj := map[string]float64{}
	for _, p := range res.Series[0].Points {
		pj[p.Label] = p.PJPerOp
		if got := experiments.TableIIPaperRef(p.Label).PJ; got != pub.Table2PJ[p.Label] {
			t.Errorf("Table II paper pJ/op of %s is %v, the reference file says %v",
				p.Label, got, pub.Table2PJ[p.Label])
		}
	}
	if len(pj) != len(pub.Table2PJ) {
		t.Fatalf("Table II has %d rows, the reference file %d", len(pj), len(pub.Table2PJ))
	}
	for _, row := range []string{"amoadd", "colibri", "lrsc", "amoadd-lock"} {
		claim("table2 "+row+" pJ/op", pj[row], pub.Table2PJ[row])
	}
	claim("energy per op, lrsc / colibri", pj["lrsc"]/pj["colibri"], pub.EnergyLRSCOverColibri)

	// Fig. 3: the 1-bin colibri and lrsc points, under fig3's windows.
	job, err := sweep.Job{Kind: sweep.Fig3, Topo: topo, Bins: []int{1}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	warmup, measure := job.Windows()
	fig3 := map[string]float64{}
	for _, spec := range experiments.Fig3Specs(noc.MemPool256().NumCores()) {
		if spec.Name == "colibri" || spec.Name == "lrsc" {
			fig3[spec.Name] = experiments.RunHistogramPoint(spec, noc.MemPool256(), 1, warmup, measure).Throughput
		}
	}
	claim("fig3 throughput at 1 bin, colibri / lrsc", fig3["colibri"]/fig3["lrsc"], pub.Fig3ColibriOverLRSC1Bin)

	for name, e := range errs {
		band, ok := fidelityBands[name]
		switch {
		case !ok:
			t.Errorf("%s: no band", name)
		case math.IsNaN(e) || e < band[0] || e > band[1]:
			t.Errorf("%s: error %+.2f%% outside its band [%+.0f, %+.0f]%%", name, e, band[0], band[1])
		}
	}
	if len(errs) != len(fidelityBands) {
		t.Errorf("%d claims checked, %d bands", len(errs), len(fidelityBands))
	}
}
