package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one registry from many goroutines that
// race get-or-create with updates and snapshots. Run under -race it
// checks the lock discipline; the final totals check that no increment
// was lost and that pointers returned for one name were stable.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Shared name: all goroutines contend on creation and update.
				r.Counter("shared.hits").Inc()
				// Per-goroutine name: exercises the create path repeatedly.
				r.Counter(fmt.Sprintf("worker.%d.ops", g)).Add(2)
				r.Gauge("level").Set(int64(i))
				r.Histogram("span").Observe(time.Microsecond)
				if i%100 == 0 {
					_ = r.Snapshot() // snapshots race benignly with updates
				}
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("shared.hits").Value(); got != goroutines*perG {
		t.Errorf("shared.hits = %d, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		name := fmt.Sprintf("worker.%d.ops", g)
		if got := r.Counter(name).Value(); got != 2*perG {
			t.Errorf("%s = %d, want %d", name, got, 2*perG)
		}
	}
	if got := r.Snapshot().Histograms["span"].Count; got != goroutines*perG {
		t.Errorf("span count = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterPointerStable(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.b")
	c2 := r.Counter("a.b")
	if c1 != c2 {
		t.Fatal("Counter returned distinct pointers for one name")
	}
	if r.Gauge("a.b") != r.Gauge("a.b") {
		t.Fatal("Gauge returned distinct pointers for one name")
	}
	if r.Histogram("a.b") != r.Histogram("a.b") {
		t.Fatal("Histogram returned distinct pointers for one name")
	}
}

func TestBadNamePanics(t *testing.T) {
	for _, name := range []string{"", "has space", "has\ttab", "has\nnewline"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Counter(%q) did not panic", name)
				}
			}()
			NewRegistry().Counter(name)
		}()
	}
}

// TestSnapshotDeterministic checks the core snapshot guarantees: zero
// values are elided (an untouched registry snapshots empty), and the
// JSON and String renderings of equal state are byte-identical across
// repeated snapshots and across separately-built registries.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		for _, name := range order {
			r.Counter(name).Add(uint64(len(name)))
		}
		r.Gauge("g.level").Set(-3)
		r.Histogram("h.span").Observe(5 * time.Millisecond)
		r.Counter("zero.counter") // created but never incremented: elided
		r.Gauge("zero.gauge")
		r.Histogram("zero.histogram")
		return r
	}
	names := []string{"b.two", "a.one", "c.three"}
	rev := []string{"c.three", "a.one", "b.two"}

	r1, r2 := build(names), build(rev)
	j1, err := r1.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("JSON differs across creation orders:\n%s\nvs\n%s", j1, j2)
	}
	if s1, s2 := r1.Snapshot().String(), r2.Snapshot().String(); s1 != s2 {
		t.Errorf("String differs across creation orders:\n%s\nvs\n%s", s1, s2)
	}
	if !bytes.Equal(j1, mustJSON(t, r1.Snapshot())) {
		t.Error("repeated snapshots of unchanged registry differ")
	}

	for _, zero := range []string{"zero.counter", "zero.gauge", "zero.histogram"} {
		if strings.Contains(string(j1), zero) {
			t.Errorf("zero-valued metric %s not elided from snapshot", zero)
		}
	}
	if s := NewRegistry().Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Errorf("empty registry snapshot not empty: %+v", s)
	}

	// The JSON round-trips.
	var back Snapshot
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counter("a.one") != uint64(len("a.one")) {
		t.Errorf("round-tripped counter a.one = %d", back.Counter("a.one"))
	}
}

func mustJSON(t *testing.T, s Snapshot) []byte {
	t.Helper()
	b, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDiff pins the diff semantics: counters and histograms subtract with
// zero deltas elided; gauges (levels, not rates) carry the b-side value.
func TestDiff(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.moves").Add(10)
	r.Counter("c.stays").Add(7)
	r.Gauge("g.level").Set(1)
	r.Histogram("h.span").Observe(time.Millisecond)
	before := r.Snapshot()

	r.Counter("c.moves").Add(5)
	r.Counter("c.new").Add(3)
	r.Gauge("g.level").Set(42)
	r.Histogram("h.span").Observe(2 * time.Millisecond)
	after := r.Snapshot()

	d := Diff(before, after)
	if got := d.Counter("c.moves"); got != 5 {
		t.Errorf("c.moves delta = %d, want 5", got)
	}
	if got := d.Counter("c.new"); got != 3 {
		t.Errorf("c.new delta = %d, want 3", got)
	}
	if _, ok := d.Counters["c.stays"]; ok {
		t.Error("unchanged counter c.stays not elided from diff")
	}
	if got := d.Gauges["g.level"]; got != 42 {
		t.Errorf("g.level = %d, want b-side 42", got)
	}
	if hv, ok := d.Histograms["h.span"]; !ok || hv.Count != 1 || bucketOf(hv.P50Ns) != bucketOf(int64(2*time.Millisecond)) {
		t.Errorf("h.span delta = %+v, want count=1 in the 2ms bucket", hv)
	}

	// Identical snapshots diff to empty (gauges excepted by design —
	// an unchanged non-zero gauge still reports its level).
	d2 := Diff(after, after)
	if len(d2.Counters) != 0 || len(d2.Histograms) != 0 {
		t.Errorf("self-diff has counter/histogram residue: %+v", d2)
	}
}

func TestDefaultIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() returned distinct registries")
	}
	c := Default().Counter("obs.test.selfcheck")
	c.Inc()
	if Default().Counter("obs.test.selfcheck").Value() == 0 {
		t.Fatal("default registry did not retain counter")
	}
}

// TestNilRegistryIsDefault checks that a nil *Registry reads and
// writes the process-wide registry, so components with an optional
// registry field need no fallback of their own.
func TestNilRegistryIsDefault(t *testing.T) {
	var r *Registry
	if r.Counter("obs.test.nil") != Default().Counter("obs.test.nil") ||
		r.Gauge("obs.test.nil") != Default().Gauge("obs.test.nil") ||
		r.Histogram("obs.test.nil") != Default().Histogram("obs.test.nil") {
		t.Fatal("a nil registry returned metrics that are not Default's")
	}
	before := Default().Snapshot()
	r.Counter("obs.test.nil").Add(3)
	r.Histogram("obs.test.nil").Observe(time.Millisecond)
	d := Diff(before, r.Snapshot())
	if d.Counter("obs.test.nil") != 3 || d.Histograms["obs.test.nil"].Count != 1 {
		t.Errorf("writes through a nil registry, read back through its Snapshot: %+v", d)
	}
	if Default().Counter("obs.test.nil").Value() < 3 {
		t.Error("a write through a nil registry is not in Default")
	}
}

// TestHistogramObserveZeroAlloc pins Observe to one atomic add.
func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewRegistry().Histogram("h.lat")
	d := 3 * time.Millisecond
	if n := testing.AllocsPerRun(1000, func() { h.Observe(d) }); n != 0 {
		t.Fatalf("Observe allocates %v times per call, want 0", n)
	}
}

// bucketOf is the Histogram bucket a duration lands in.
func bucketOf(d int64) int { return bits.Len64(uint64(max(d, 0))) }

// TestHistogramQuantiles checks each reported quantile against the
// nearest-rank quantile of the sorted observations: the estimate must
// land within one log2 bucket of it.
func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, tc := range []struct {
		name string
		draw func() int64
	}{
		{"uniform", func() int64 { return rng.Int64N(1e6) }},
		{"lognormal", func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 10)) }},
		{"bimodal", func() int64 {
			if rng.IntN(10) == 0 {
				return 5e6 + rng.Int64N(1e6)
			}
			return 2e4 + rng.Int64N(1e3)
		}},
		{"with zeros", func() int64 { return rng.Int64N(4) }},
	} {
		for _, n := range []int{1, 7, 100, 5000} {
			r := NewRegistry()
			h := r.Histogram("h.lat")
			ref := make([]int64, n)
			for i := range ref {
				ref[i] = tc.draw()
				h.Observe(time.Duration(ref[i]))
			}
			slices.Sort(ref)
			v := r.Snapshot().Histograms["h.lat"]
			if v.Count != uint64(n) {
				t.Fatalf("%s n=%d: count = %d", tc.name, n, v.Count)
			}
			for _, q := range []struct {
				p   float64
				got int64
			}{{0.50, v.P50Ns}, {0.90, v.P90Ns}, {0.99, v.P99Ns}} {
				want := ref[int(math.Ceil(q.p*float64(n)))-1]
				if db := bucketOf(q.got) - bucketOf(want); db < -1 || db > 1 {
					t.Errorf("%s n=%d: p%.0f = %d, sorted reference %d (%d buckets apart)",
						tc.name, n, 100*q.p, q.got, want, db)
				}
			}
		}
	}
}

// TestHistogramSnapshotDiffString covers the histogram in the snapshot
// surfaces: elided until observed, subtracted exactly by Diff, rendered
// by String and JSON, and absent from the JSON of a snapshot without one.
func TestHistogramSnapshotDiffString(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h.lat")
	r.Counter("c.n").Inc()
	before := r.Snapshot()
	if _, ok := before.Histograms["h.lat"]; ok {
		t.Fatal("unobserved histogram in snapshot")
	}
	if b, _ := before.JSON(); bytes.Contains(b, []byte("histograms")) {
		t.Fatalf("snapshot without observations renders histograms: %s", b)
	}
	for i := 0; i < 100; i++ {
		h.Observe(time.Second)
	}
	mid := r.Snapshot()
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}
	after := r.Snapshot()

	d := Diff(mid, after)
	v, ok := d.Histograms["h.lat"]
	if !ok || v.Count != 100 {
		t.Fatalf("diff histogram = %+v, want count 100", v)
	}
	if bucketOf(v.P99Ns) != bucketOf(int64(time.Microsecond)) {
		t.Errorf("diff p99 = %v, want the microsecond bucket (the second-long observations predate mid)", time.Duration(v.P99Ns))
	}
	if d2 := Diff(after, after); len(d2.Histograms) != 0 {
		t.Errorf("self-diff has histogram residue: %+v", d2.Histograms)
	}
	if full := Diff(before, after).Histograms["h.lat"]; full.Count != 200 || bucketOf(full.P90Ns) != bucketOf(int64(time.Second)) {
		t.Errorf("diff over both halves = %+v, want count 200 and p90 in the second bucket", full)
	}
	if s := after.String(); !strings.Contains(s, "h.lat count=200 p50=") || !strings.Contains(s, " p99=") {
		t.Errorf("String lacks the histogram line:\n%s", s)
	}
	b, err := after.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Histograms map[string]map[string]int64 `json:"histograms"`
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if hv := back.Histograms["h.lat"]; hv["count"] != 200 || hv["p50Ns"] == 0 || len(hv) != 4 {
		t.Errorf("JSON histogram = %v, want count, p50Ns, p90Ns and p99Ns", hv)
	}
}
