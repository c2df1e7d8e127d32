package main

import (
	_ "embed"
	"encoding/json"
)

// referenceJSON pins the outputs the benchmark checks and the paper's
// published numbers; see README.md for how each entry was produced.
//
//go:embed testdata/reference.json
var referenceJSON []byte

type reference struct {
	// PaperSweep is the sha256 of each kind's JSON, per topology: the
	// bytes `sweep -all -topo <topo> -json DIR` writes.
	PaperSweep map[string]map[string]string `json:"paper_sweep_sha256"`
	// ActivitySeed1 is the sha256 of the kernel workloads' Activity
	// snapshot after digestWindows windows at seed 1, keyed
	// "<workload>@<topology>".
	ActivitySeed1 map[string]string `json:"activity_seed1_sha256"`
	Published     struct {
		Table1KGE []struct {
			Label  string  `json:"label"`
			Params string  `json:"params"`
			KGE    float64 `json:"kge"`
		} `json:"table1_kge"`
		Table2PJ                map[string]float64 `json:"table2_pj"`
		Fig3ColibriOverLRSC1Bin float64            `json:"fig3_colibri_over_lrsc_1bin"`
		EnergyLRSCOverColibri   float64            `json:"energy_lrsc_over_colibri"`
	} `json:"published"`
}

var referenceData = func() reference {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		panic("bench: bad testdata/reference.json: " + err.Error())
	}
	return r
}()

// activityDigest returns the reference Activity digest of a kernel
// workload, which exists for seed 1 only.
func (r reference) activityDigest(env *runEnv, workload string) (string, bool) {
	if env.seed != 1 {
		return "", false
	}
	d, ok := r.ActivitySeed1[workload+"@"+env.kernelTopoName()]
	return d, ok
}
