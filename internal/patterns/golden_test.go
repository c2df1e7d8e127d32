package patterns

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the emitter golden files from current output")

// Reduced deterministic windows for the golden sweeps (the sweep
// package's test convention).
const (
	testWarmup  = 300
	testMeasure = 1500
)

// TestGoldenEmitters pins the three pattern kinds' JSON, CSV and
// aligned-table output byte-for-byte against testdata/. After an
// intentional simulator or emitter change, regenerate with
//
//	go test ./internal/patterns -run TestGoldenEmitters -update
//
// and review the diff like any other code change.
func TestGoldenEmitters(t *testing.T) {
	cases := []struct {
		name string
		job  sweep.Job
	}{
		// The default barrier job pins all variant × wait curves and the
		// param canonicalization (Normalize fills wait/variant).
		{"barrier-default", sweep.Job{Kind: KindBarrier, Topo: "small",
			Bins: []int{2, 4}, Warmup: testWarmup, Measure: testMeasure}},
		// The RCU job pins the reader-throughput + writer-latency table.
		{"rcu-default", sweep.Job{Kind: KindRCU, Topo: "small",
			Bins: []int{2, 4}, Warmup: testWarmup, Measure: testMeasure}},
		// A policy-grid combining-lock job pins grid series labelling for
		// the pattern kinds (plain vs colibri under one wait kind).
		{"comblock-grid", sweep.Job{Kind: KindCombLock, Topo: "small",
			Bins: []int{2, 4}, Warmup: testWarmup, Measure: testMeasure,
			Params: map[string]string{ParamWait: "spin,mwait", ParamMaxCombine: "4"},
			Grid:   sweep.Grid{Policies: []string{"plain", "colibri"}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, _, err := (&sweep.Runner{Workers: 1}).Run(c.job)
			if err != nil {
				t.Fatal(err)
			}
			jsonB, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			outputs := []struct {
				ext string
				got []byte
			}{
				{"json", jsonB},
				{"csv", []byte(res.CSV())},
				{"txt", []byte(res.Table().String())},
			}
			for _, o := range outputs {
				path := filepath.Join("testdata", c.name+"."+o.ext)
				if *update {
					if err := os.WriteFile(path, o.got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
				}
				if !bytes.Equal(o.got, want) {
					t.Errorf("%s: output drifted from golden file\n--- got ---\n%s--- want ---\n%s",
						path, o.got, want)
				}
			}
		})
	}
}
