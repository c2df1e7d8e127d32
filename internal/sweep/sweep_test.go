package sweep

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/noc"
)

// Reduced windows keep every engine test on the 16-core topology fast
// while still exercising real simulations.
const (
	testWarmup  = 300
	testMeasure = 1500
)

func testJob(kind Kind) Job {
	j := Job{Kind: kind, Topo: "small", Warmup: testWarmup, Measure: testMeasure}
	switch kind {
	case Fig3, Fig4:
		j.Bins = []int{1, 4}
	case Fig5:
		j.Bins = []int{1}
		j.MatN = 16
	case TableI:
		// The area model reads no windows.
		j.Warmup, j.Measure = 0, 0
	}
	return j
}

// TestFig5NormalizeRejectsLayoutBeyondMemory checks that Fig. 5's
// Normalize refuses a negative matrix size and any (bins, matn) pair
// whose layout the topology's memory cannot hold, sizes whose word
// counts would overflow included, and leaves a bin count below 1 to the
// engine's own error.
func TestFig5NormalizeRejectsLayoutBeyondMemory(t *testing.T) {
	for _, c := range []struct {
		job  Job
		want string
	}{
		{Job{Kind: Fig5, Topo: "small", MatN: -1}, "sweep: bad matn -1"},
		{Job{Kind: Fig5, Topo: "mempool", MatN: -1}, "sweep: bad matn -1"},
		{Job{Kind: Fig5, Topo: "small", MatN: 100000},
			"sweep: fig5: bins 1 and matn 100000 do not fit small's memory"},
		{Job{Kind: Fig5, Topo: "small", Bins: []int{1, 1000000}},
			"sweep: fig5: bins 1000000 and matn 128 do not fit small's memory"},
		{Job{Kind: Fig5, Topo: "small", MatN: 1 << 30}, "do not fit"},
		{Job{Kind: Fig5, Topo: "small", MatN: math.MaxInt}, "do not fit"},
		{Job{Kind: Fig5, Topo: "small", Bins: []int{math.MaxInt}}, "do not fit"},
		{Job{Kind: Fig5, Topo: "small", Bins: []int{0}}, "sweep: bad bin count 0"},
	} {
		if _, err := c.job.Normalize(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: Normalize error %v, want %q", c.job, err, c.want)
		}
	}
	if _, err := (Job{Kind: Fig5, Topo: "small", Bins: []int{1, 16}, MatN: 64}).Normalize(); err != nil {
		t.Errorf("a fitting fig5 job: %v", err)
	}
}

func TestNormalizeDefaults(t *testing.T) {
	j, err := Job{Kind: Fig3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if j.Topo != "mempool" || j.Warmup != 3000 || j.Measure != 10000 {
		t.Errorf("defaults = %+v", j)
	}
	if len(j.Bins) != 11 || j.Bins[10] != 1024 {
		t.Errorf("default bins = %v", j.Bins)
	}
}

// TestLiteralZeroWindow checks the negative sentinel: a negative
// Warmup/Measure survives Normalize (idempotent) and runs as a literal
// zero-cycle window rather than being replaced by the default.
func TestLiteralZeroWindow(t *testing.T) {
	j, err := Job{Kind: Fig3, Topo: "small", Bins: []int{1}, Warmup: -1, Measure: 2000}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if j.Warmup != -1 {
		t.Fatalf("negative warmup rewritten to %d", j.Warmup)
	}
	res, _, err := (&Runner{Workers: 1}).Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Series[0].Points[0].Throughput; got <= 0 {
		t.Errorf("zero-warmup run made no progress: %v", got)
	}
	ref := experiments.RunHistogramPoint(experiments.Fig3Specs(16)[0], noc.Small(), 1, 0, 2000)
	if res.Series[0].Points[0].Throughput != ref.Throughput {
		t.Errorf("literal-zero warmup %v != direct warmup-0 run %v",
			res.Series[0].Points[0].Throughput, ref.Throughput)
	}
	if !strings.Contains(res.Table().String(), "warmup 0,") {
		t.Errorf("table title does not resolve sentinel:\n%s", res.Table().Title)
	}
}

func TestNormalizeErrors(t *testing.T) {
	if _, err := (Job{Kind: "nope"}).Normalize(); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := (Job{Kind: Fig3, Topo: "galaxy"}).Normalize(); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := (Job{Kind: Fig3, Topo: "small", Bins: []int{0}}).Normalize(); err == nil {
		t.Error("zero bin count accepted")
	}
}

// TestCacheRoundTrip: a stored point reads back under its key, however
// the key's JSON encoding escapes it (quotes and backslashes from quoted
// params, <>& as \u003c…), and under no other key.
func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := Point{X: 7, Label: "row", Throughput: 0.125, PJPerOp: 42.5,
		Extra: map[string]float64{"custom_metric": 3.5}}
	for _, key := range []string{"k1", `run|p="a\"b\\c"`, "run|p=<a&b>", "run|é "} {
		if _, ok := c.Get(key); ok {
			t.Fatalf("hit for %q on an empty cache", key)
		}
		if err := c.Put(key, want); err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(key)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%q) = %+v, %v; want %+v", key, got, ok, want)
		}
	}
	if _, ok := c.Get("k2"); ok {
		t.Error("hit for a different key")
	}
}

// TestCacheCorruptEntryIsMiss: Get hits only on the exact envelope Put
// writes. Garbage, a torn file, the same point in another envelope, and
// a directory at the entry path are all misses.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", Point{X: 1}); err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{
		"{garbage",
		`{"key":"k","point":{"x":1}`,
		`{"key": "k","point":{"x":1}}`,
		`{"key":"k","point":{"x":1}}` + "\n",
		`{"point":{"x":1},"key":"k"}`,
		`{"key":"k","point":{"x":1},"key":"k"}`,
		`{"key":"k","point":[1]}`,
	} {
		writeEntry(t, c, "k", []byte(b))
		if p, ok := c.Get("k"); ok {
			t.Errorf("entry %q served as hit %+v", b, p)
		}
	}
	if err := os.MkdirAll(c.path("dir"), 0o755); err != nil {
		t.Fatal(err)
	}
	if p, ok := c.Get("dir"); ok {
		t.Errorf("directory at the entry path served as hit %+v", p)
	}
}

func TestCacheKeyMismatchIsMiss(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("real-key", Point{X: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a hash collision: alias the entry file under another key.
	alias := c.path("other-key")
	if err := os.MkdirAll(filepath.Dir(alias), 0o755); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(c.path("real-key"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(alias, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("other-key"); ok {
		t.Error("entry with mismatched key served as hit")
	}
}

// TestCacheStats checks the on-disk side of the -cache-stats report
// (entry and byte counts from a directory walk; the traffic counters
// are process-cumulative and owned by the obs tests) and that the
// process counters move across a Put/Get pair.
func TestCacheStats(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	empty, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if empty.Entries != 0 || empty.TotalBytes != 0 {
		t.Errorf("fresh cache stats = %d entries/%d bytes, want 0/0", empty.Entries, empty.TotalBytes)
	}
	for i, key := range []string{"a", "b", "c"} {
		if err := c.Put(key, Point{X: i}); err != nil {
			t.Fatal(err)
		}
	}
	c.Get("a")       // hit
	c.Get("missing") // miss
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 3 || st.TotalBytes == 0 {
		t.Errorf("stats = %d entries/%d bytes, want 3 entries, non-zero bytes", st.Entries, st.TotalBytes)
	}
	if st.Hits-empty.Hits != 1 || st.Misses-empty.Misses != 1 || st.Stores-empty.Stores != 3 {
		t.Errorf("traffic deltas hits/misses/stores = %d/%d/%d, want 1/1/3",
			st.Hits-empty.Hits, st.Misses-empty.Misses, st.Stores-empty.Stores)
	}
	if st.ReadBytes <= empty.ReadBytes || st.StoreBytes <= empty.StoreBytes {
		t.Error("byte counters did not move")
	}
	if s := st.Summary(); !strings.Contains(s, "3 entries") {
		t.Errorf("summary missing entry count: %q", s)
	}
}

// resultJSON runs one job and returns its JSON bytes.
func resultJSON(t *testing.T, r Runner, job Job) []byte {
	t.Helper()
	res, _, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeterministicAcrossWorkers is the engine's core guarantee: a sweep
// on one worker is byte-identical (as JSON) to the same sweep on many.
func TestDeterministicAcrossWorkers(t *testing.T) {
	for _, kind := range []Kind{Fig3, Fig6, TableII} {
		job := testJob(kind)
		serial := resultJSON(t, Runner{Workers: 1}, job)
		parallel := resultJSON(t, Runner{Workers: 8}, job)
		if !bytes.Equal(serial, parallel) {
			t.Errorf("%s: 1-worker and 8-worker JSON differ:\n%s\n---\n%s",
				kind, serial, parallel)
		}
	}
}

// TestWarmCacheExecutesNothing checks the second half of the engine
// contract: a re-run of an unchanged job is served entirely from the
// cache, with zero simulations executed and identical output.
func TestWarmCacheExecutesNothing(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := testJob(Fig3)
	r := Runner{Workers: 4, Cache: cache}

	cold, st, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != st.Units || st.CacheHits != 0 {
		t.Fatalf("cold run stats = %+v", st)
	}
	warm, st, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 0 {
		t.Errorf("warm run executed %d simulations", st.Executed)
	}
	if st.CacheHits != st.Units {
		t.Errorf("warm run hits = %d, want %d", st.CacheHits, st.Units)
	}
	cb, _ := cold.JSON()
	wb, _ := warm.JSON()
	if !bytes.Equal(cb, wb) {
		t.Error("warm-cache result differs from cold run")
	}
}

// TestFig3Parity pins the engine to the reference implementation: the
// sweep result must match direct serial experiments.RunHistogramPoint
// calls over the same spec × bins grid exactly.
func TestFig3Parity(t *testing.T) {
	topo := noc.Small()
	bins := []int{1, 4, 16}
	job := Job{Kind: Fig3, Topo: "small", Bins: bins, Warmup: testWarmup, Measure: testMeasure}
	res, _, err := (&Runner{Workers: 4}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	specs := experiments.Fig3Specs(topo.NumCores())
	if len(res.Series) != len(specs) {
		t.Fatalf("series count %d, want %d", len(res.Series), len(specs))
	}
	for si, spec := range specs {
		if res.Series[si].Name != spec.Name {
			t.Errorf("series %d name %q, want %q", si, res.Series[si].Name, spec.Name)
		}
		for pi, b := range bins {
			ref := experiments.RunHistogramPoint(spec, topo, b, testWarmup, testMeasure)
			got := res.Series[si].Points[pi]
			if got.X != b || got.Throughput != ref.Throughput {
				t.Errorf("%s bins=%d: engine (%d, %v) != direct %v",
					spec.Name, b, got.X, got.Throughput, ref.Throughput)
			}
		}
	}
}

// TestTableIIDeltaSurvivesCache checks that the cross-row DeltaPct (a
// finalize-time derivation, deliberately never cached) is identical on
// cold and warm runs.
func TestTableIIDeltaSurvivesCache(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := testJob(TableII)
	r := Runner{Workers: 2, Cache: cache}
	cold, _, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	warm, st, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 0 {
		t.Fatalf("warm table2 run executed %d simulations", st.Executed)
	}
	sawDelta := false
	for i, p := range cold.Series[0].Points {
		w := warm.Series[0].Points[i]
		if math.Abs(p.DeltaPct-w.DeltaPct) > 1e-12 {
			t.Errorf("%s: cold delta %v != warm delta %v", p.Label, p.DeltaPct, w.DeltaPct)
		}
		if p.DeltaPct != 0 {
			sawDelta = true
		}
	}
	if !sawDelta {
		t.Error("no row carries a nonzero delta vs colibri")
	}
}

// TestRunAllSharesOnePool runs several jobs in one shot and checks each
// result matches its individually-run counterpart.
func TestRunAllSharesOnePool(t *testing.T) {
	jobs := []Job{testJob(Fig3), testJob(TableI), testJob(TableII)}
	r := Runner{Workers: 8}
	all, st, err := r.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(all), len(jobs))
	}
	if st.Units == 0 || st.Executed == 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i, job := range jobs {
		single := resultJSON(t, Runner{Workers: 2}, job)
		combined, err := all[i].JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(single, combined) {
			t.Errorf("job %s: combined run differs from single run", job.Kind)
		}
	}
}

// TestDuplicateJobsCollapse checks that selecting the same experiment
// twice costs one simulation per distinct point, with both results
// filled identically.
func TestDuplicateJobsCollapse(t *testing.T) {
	job := testJob(Fig3)
	all, st, err := (&Runner{Workers: 4}).RunAll([]Job{job, job})
	if err != nil {
		t.Fatal(err)
	}
	single, sst, err := (&Runner{Workers: 4}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if st.Units != sst.Units || st.Executed != sst.Executed {
		t.Errorf("duplicate jobs stats %+v, single job %+v", st, sst)
	}
	want, _ := single.JSON()
	for i, res := range all {
		got, _ := res.JSON()
		if !bytes.Equal(got, want) {
			t.Errorf("duplicate result %d differs from single run", i)
		}
	}
}

// TestProgressEvents checks every point reports exactly once and the
// final event carries the full total.
func TestProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	r := Runner{Workers: 4, Progress: func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}}
	_, st, err := r.Run(testJob(Fig3))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != st.Units {
		t.Fatalf("%d events for %d units", len(events), st.Units)
	}
	maxDone := 0
	for _, ev := range events {
		if ev.Total != st.Units || ev.Kind != Fig3 {
			t.Fatalf("bad event %+v", ev)
		}
		if ev.Done > maxDone {
			maxDone = ev.Done
		}
	}
	if maxDone != st.Units {
		t.Errorf("max Done = %d, want %d", maxDone, st.Units)
	}
}

func TestTableRenderingMatchesKinds(t *testing.T) {
	for _, kind := range []Kind{TableI} {
		res, _, err := (&Runner{}).Run(testJob(kind))
		if err != nil {
			t.Fatal(err)
		}
		if tbl := res.Table().String(); tbl == "" {
			t.Errorf("%s: empty table", kind)
		}
		if csv := res.CSV(); csv == "" {
			t.Errorf("%s: empty CSV", kind)
		}
	}
}

func TestParseBins(t *testing.T) {
	bins, err := ParseBins(" 1, 2,8 ")
	if err != nil || len(bins) != 3 || bins[2] != 8 {
		t.Errorf("ParseBins = %v, %v", bins, err)
	}
	if b, err := ParseBins(""); err != nil || b != nil {
		t.Errorf("empty ParseBins = %v, %v", b, err)
	}
	if _, err := ParseBins("1,x"); err == nil {
		t.Error("bad token accepted")
	}
	if _, err := ParseBins("-4"); err == nil {
		t.Error("negative bin accepted")
	}
}

func TestOpenCacheFlag(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCacheFlag(dir)
	if err != nil || c == nil || c.Dir() != dir {
		t.Errorf("explicit dir: %v, %v", c, err)
	}
	if c, err := OpenCacheFlag("off"); err != nil || c != nil {
		t.Errorf("off: %v, %v", c, err)
	}
}
