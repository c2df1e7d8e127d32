package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestCachePutRenameFailureCleansTemp pins the temp-file leak fix: when
// the final rename fails (here: the destination path is occupied by a
// directory), Put must report the error AND remove its temp file instead
// of leaving .tmp-* garbage in the shard directory.
func TestCachePutRenameFailureCleansTemp(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "rename-failure-key"
	dest := c.path(key)
	if err := os.MkdirAll(dest, 0o755); err != nil { // squat the destination
		t.Fatal(err)
	}
	if err := c.Put(key, Point{X: 1}); err == nil {
		t.Fatal("Put over a directory-squatted destination should fail")
	}
	tmps, err := filepath.Glob(filepath.Join(filepath.Dir(dest), ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("failed Put leaked temp files: %v", tmps)
	}
}

// TestCacheStatsTempFiles checks the orphan accounting: Stats counts
// .tmp-* residue, reaps only stale files (older than tempMaxAge), and
// reports both without disturbing real entries.
func TestCacheStatsTempFiles(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("some-key", Point{X: 7}); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Dir(c.path("some-key"))
	stale := filepath.Join(shard, ".tmp-stale")
	fresh := filepath.Join(shard, ".tmp-fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", st.Entries)
	}
	if st.TempFiles != 2 || st.TempReaped != 1 {
		t.Fatalf("TempFiles=%d TempReaped=%d, want 2 and 1", st.TempFiles, st.TempReaped)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file should have been reaped")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp file (in-flight write) must survive the scan")
	}
	if !strings.Contains(st.Summary(), "orphaned temp files: 2") {
		t.Fatalf("Summary missing temp-file line:\n%s", st.Summary())
	}
	// A clean cache keeps the two-line summary of before.
	st2, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.TempFiles != 1 { // the fresh one is still there
		t.Fatalf("second scan TempFiles = %d, want 1", st2.TempFiles)
	}
}

// TestInspectCacheReadOnly pins the -cache-stats side-effect fix:
// inspecting a cache that does not exist must report it — not create the
// directory the way OpenCache does.
func TestInspectCacheReadOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "never-created")
	if _, err := InspectCache(dir); err == nil || !strings.Contains(err.Error(), "no cache at") {
		t.Fatalf("InspectCache(missing) err = %v, want 'no cache at'", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("InspectCache created the cache directory as a side effect")
	}

	// An existing cache inspects fine and Stats sees its entries.
	real, err := OpenCache(filepath.Join(t.TempDir(), "real"))
	if err != nil {
		t.Fatal(err)
	}
	if err := real.Put("k", Point{X: 3}); err != nil {
		t.Fatal(err)
	}
	ins, err := InspectCache(real.Dir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ins.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 {
		t.Fatalf("inspected Entries = %d, want 1", st.Entries)
	}

	if c, err := InspectCacheFlag("off"); c != nil || err != nil {
		t.Fatalf("InspectCacheFlag(off) = %v, %v; want nil, nil", c, err)
	}
}

// TestConcurrentRunnersIsolatedRegistries is the regression test for
// cross-contaminated run metrics: two RunAll calls executing
// concurrently, each scoped to its own registry via Runner.Obs, must
// account their points and cache traffic entirely in their own registry
// — exactly as many points as each run had, no bleed-through.
func TestConcurrentRunnersIsolatedRegistries(t *testing.T) {
	type run struct {
		reg   *obs.Registry
		cache *Cache
		st    RunStats
		err   error
	}
	runs := [2]*run{}
	for i := range runs {
		cache, err := OpenCache(filepath.Join(t.TempDir(), "c"))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = &run{reg: obs.NewRegistry(), cache: cache}
	}
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func(i int, r *run) {
			defer wg.Done()
			runner := Runner{Workers: 1, Cache: r.cache, Obs: r.reg}
			_, r.st, r.err = runner.RunAll([]Job{testJob(Fig6)})
		}(i, r)
	}
	wg.Wait()
	for i, r := range runs {
		if r.err != nil {
			t.Fatalf("run %d: %v", i, r.err)
		}
		snap := r.reg.Snapshot()
		if got := snap.Counter("sweep.points.total"); got != uint64(r.st.Units) {
			t.Fatalf("run %d: sweep.points.total = %d, want its own %d units", i, got, r.st.Units)
		}
		// Cold cache: every simulated unit stored, none served.
		if got := snap.Counter("sweep.cache.stores"); got != uint64(r.st.Executed) {
			t.Fatalf("run %d: sweep.cache.stores = %d, want %d", i, got, r.st.Executed)
		}
		if got := snap.Counter("sweep.cache.hits"); got != 0 {
			t.Fatalf("run %d: sweep.cache.hits = %d on a cold cache", i, got)
		}
		// RunStats.Metrics is the scoped diff — same isolation.
		if got := r.st.Metrics.Counter("sweep.points.total"); got != uint64(r.st.Units) {
			t.Fatalf("run %d: Metrics sweep.points.total = %d, want %d", i, got, r.st.Units)
		}
	}
}

// writeEntry writes raw bytes at key's entry path.
func writeEntry(t *testing.T, c *Cache, key string, b []byte) {
	t.Helper()
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheGetReadsStoredFormat: an entry written by an earlier build,
// byte for byte as json.Marshal(entry{key, point}) lays it out, is a
// hit, for every field of Point and every kind of value json.Marshal
// writes there.
func TestCacheGetReadsStoredFormat(t *testing.T) {
	c := newCache(t.TempDir())
	const key = "v4|6589d8cee41a6f49|fig6|ct4|bt16|tg2|g2|w3000|m12000|lrsc|v0|msfalse|p=lrsc|q0|cq4|bo128|active16"
	for _, tc := range []struct {
		name  string
		point string // the point's bytes as json.Marshal writes them
		want  Point
	}{
		{"fig6", `{"x":16,"throughput":0.1075,"minPerCore":0.004333333333333333,"maxPerCore":0.00875}`,
			Point{X: 16, Throughput: 0.1075, MinPerCore: 0.004333333333333333, MaxPerCore: 0.00875}},
		{"table1", `{"x":1,"label":"with LRSCwait1","params":"1 queue slot","areaKGE":790.008,"overheadPct":14.328219971056445,"paperKGE":790}`,
			Point{X: 1, Label: "with LRSCwait1", Params: "1 queue slot", AreaKGE: 790.008, OverheadPct: 14.328219971056445, PaperKGE: 790}},
		{"table2", `{"x":2,"label":"lrsc","backoff":128,"powerMW":166.2405888,"pjPerOp":32.306999999999995,"deltaPct":54.71219231874338,"paperPJ":884}`,
			Point{X: 2, Label: "lrsc", Backoff: 128, PowerMW: 166.2405888, PJPerOp: 32.306999999999995, DeltaPct: 54.71219231874338, PaperPJ: 884}},
		{"fig5", `{"x":4,"rel":0.9375,"baselineOps":1250000.5,"loadedOps":1171875}`,
			Point{X: 4, Rel: 0.9375, BaselineOps: 1250000.5, LoadedOps: 1171875}},
		{"extra", `{"x":3,"throughput":0.5,"extra":{"":1,"a\u003cb":-2.5,"retries":0,"é":7}}`,
			Point{X: 3, Throughput: 0.5, Extra: map[string]float64{"": 1, "a<b": -2.5, "retries": 0, "é": 7}}},
		{"escaped label", `{"x":0,"label":"a\u003cb \"q\" é"}`,
			Point{Label: `a<b "q" é`}},
		{"negative and exponent floats", `{"x":-3,"throughput":1e-7,"minPerCore":-0.25,"maxPerCore":1e+21,"deltaPct":-1.5e-9,"paperPJ":-1e+22}`,
			Point{X: -3, Throughput: 1e-7, MinPerCore: -0.25, MaxPerCore: 1e21, DeltaPct: -1.5e-9, PaperPJ: -1e22}},
	} {
		stored := `{"key":"` + key + `","point":` + tc.point + `}`
		if b, err := json.Marshal(entry{Key: key, Point: tc.want}); err != nil || string(b) != stored {
			t.Fatalf("%s: json.Marshal writes %s (%v), the test stores %s", tc.name, b, err, stored)
		}
		writeEntry(t, c, key, []byte(stored))
		if p, ok := c.Get(key); !ok || !reflect.DeepEqual(p, tc.want) {
			t.Fatalf("%s: Get = %+v, %v; want %+v", tc.name, p, ok, tc.want)
		}
	}
}

// TestCutKey holds cutKey to bytes.CutPrefix(b, json.Marshal(key)) for
// a key of each byte class json.Marshal treats apart: the escaped '"'
// and '\\', the HTML-escaped '<', '>' and '&', a control byte, DEL, a
// non-ASCII byte and a plain key. Each key is cut from its marshaled
// form and from itself between bare quotes, which only a plain key
// matches.
func TestCutKey(t *testing.T) {
	const plain = "v4|6589d8cee41a6f49|fig3|bins16"
	for _, key := range []string{
		plain, "a\"b", "a\\b", "a<b", "a>b", "a&b", "a\x1fb", "a\x7fb", "a\xc3\xa9b", "",
	} {
		k, err := json.Marshal(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{
			append(k, `,"point":{}}`...),
			[]byte(`"` + key + `","point":{}}`),
		} {
			want, wantOK := bytes.CutPrefix(b, k)
			if got, ok := cutKey(b, key); ok != wantOK || !bytes.Equal(got, want) {
				t.Errorf("cutKey(%q, %q) = %q, %v; bytes.CutPrefix gives %q, %v", b, key, got, ok, want, wantOK)
			}
		}
	}
}

// TestPointFieldsMatchStruct is the decoder's drift guard: pointFields
// must name Point's json keys in struct order, each with an accessor of
// its field's type that reaches that field. A new Point field missing
// here would make every entry holding it a miss, and so a re-simulation.
func TestPointFieldsMatchStruct(t *testing.T) {
	typ := reflect.TypeOf(Point{})
	if typ.NumField() != len(pointFields) {
		t.Fatalf("Point has %d fields, pointFields %d", typ.NumField(), len(pointFields))
	}
	for i, f := range pointFields {
		sf := typ.Field(i)
		if name, _, _ := strings.Cut(sf.Tag.Get("json"), ","); name != f.key {
			t.Fatalf("field %d: Point.%s is written as %q, pointFields has %q", i, sf.Name, name, f.key)
		}
		var p Point
		switch {
		case f.int != nil:
			*f.int(&p) = 1
		case f.float != nil:
			*f.float(&p) = 1
		case f.str != nil:
			*f.str(&p) = "s"
		default:
			p.Extra = map[string]float64{"k": 1}
		}
		v := reflect.ValueOf(p)
		for j := range typ.NumField() {
			if set := !v.Field(j).IsZero(); set != (j == i) {
				t.Fatalf("pointFields[%d] (%q) sets Point.%s", i, f.key, typ.Field(j).Name)
			}
		}
	}
}

// TestCacheTouchLogBounded pins the bound on the touch log: once it
// doubles since its last prune, touches older than touchInterval go, so
// a long-running process remembers only recently read entries.
func TestCacheTouchLogBounded(t *testing.T) {
	c := newCache(t.TempDir())
	t0 := time.Now()
	path := func(i int) string { return filepath.Join(c.dir, "no-such", strconv.Itoa(i)) }
	for i := 0; i < minTouchPrune; i++ {
		c.touchAt(path(i), t0)
	}
	// Rate limit: inside the interval a path is not due again.
	if c.touched.due(path(0), t0.Add(touchInterval-time.Second)) {
		t.Fatal("a path touched inside touchInterval is due again")
	}
	// A new interval: each fresh touch lands on a full log and prunes
	// every touch of the first interval.
	t1 := t0.Add(touchInterval)
	for i := minTouchPrune; i < 3*minTouchPrune; i++ {
		c.touchAt(path(i), t1)
		if n := len(c.touched.last); n > 2*minTouchPrune {
			t.Fatalf("touch log holds %d paths after %d touches", n, i+1)
		}
	}
	if _, ok := c.touched.last[path(0)]; ok {
		t.Fatal("a touch older than touchInterval survived the prune")
	}
	if !c.touched.due(path(0), t1) {
		t.Fatal("a pruned path is not due a touch")
	}
}
