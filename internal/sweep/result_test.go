package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenJSON returns the committed JSON goldens of TestGoldenEmitters,
// keyed by file name.
func goldenJSON(tb testing.TB) map[string][]byte {
	tb.Helper()
	var names []string
	for _, pat := range []string{"fig*.json", "table*.json"} {
		m, err := filepath.Glob(filepath.Join("testdata", pat))
		if err != nil {
			tb.Fatal(err)
		}
		names = append(names, m...)
	}
	if len(names) == 0 {
		tb.Fatal("no JSON goldens under testdata")
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(name)] = b
	}
	return out
}

// goldenResult decodes one golden back into the Result it renders.
func goldenResult(tb testing.TB, b []byte) *Result {
	tb.Helper()
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		tb.Fatal(err)
	}
	return &r
}

// TestResultJSONAllocs guards the one buffer: once it has grown to fit,
// Result.JSON writes points, here every golden's points doubled (none
// with Extra, whose keys are sorted through a slice per point), with no
// allocation, so more points cost no more allocations. The rest of the
// document does not grow with the points; it goes through
// encoding/json, whose pools, like JSON's own buffer pool, the race
// detector empties at random, so its count is not pinned here.
func TestResultJSONAllocs(t *testing.T) {
	for name, b := range goldenJSON(t) {
		r := goldenResult(t, b)
		for i := range r.Series {
			r.Series[i].Points = append(r.Series[i].Points, r.Series[i].Points...)
		}
		var buf []byte
		render := func() {
			buf = buf[:0]
			for i := range r.Series {
				var err error
				if buf, err = appendArray(buf, r.Series[i].Points, "]", appendPoint); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := testing.AllocsPerRun(50, render); n != 0 {
			t.Errorf("%s: writing its points twice over allocates %v times", name, n)
		}
	}
}

// BenchmarkResultJSON renders every committed JSON golden once per
// operation, decoded back into its Result; it simulates nothing.
func BenchmarkResultJSON(b *testing.B) {
	var results []*Result
	for _, g := range goldenJSON(b) {
		results = append(results, goldenResult(b, g))
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, r := range results {
			if _, err := r.JSON(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
