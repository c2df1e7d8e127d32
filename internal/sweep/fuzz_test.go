package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The flag parsers take outside input through the CLI and the sweep
// service's query string. Each fuzz target checks that a parser never
// panics and that whatever it accepts survives a round trip through the
// syntax it documents. The cache-entry decoder reads whatever sits on
// disk; its target checks that only a well-formed entry for the asked
// key reads as a hit, and the point decoder's target holds it to
// json.Unmarshal. Seed corpora live under testdata/fuzz.

func joinInts(vals []int) string {
	s := make([]string, len(vals))
	for i, v := range vals {
		s[i] = strconv.Itoa(v)
	}
	return strings.Join(s, ",")
}

func FuzzParseBins(f *testing.F) {
	for _, s := range []string{"", "1", "1,4,16", " 2 , 3 ", "0", "-1", "1,,2", "+5", "99999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		bins, err := ParseBins(s)
		if err != nil {
			return
		}
		for _, b := range bins {
			if b <= 0 {
				t.Fatalf("ParseBins(%q) accepted bin count %d", s, b)
			}
		}
		again, err := ParseBins(joinInts(bins))
		if err != nil || !reflect.DeepEqual(again, bins) {
			t.Fatalf("ParseBins(%q) = %v does not round-trip: %v, %v", s, bins, again, err)
		}
	})
}

func FuzzParseGrid(f *testing.F) {
	for _, s := range []string{"", "policy=lrsc,colibri", "queuecap=0,1,2,4 colibriq=2,4,8 backoff=0,64",
		"policy=a policy=b", "bogus", "queuecap=", "queuecap=-1", "speed=1", "policy=,x", "backoff=+3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ParseGrid(s)
		if err != nil {
			return
		}
		var clauses []string
		if len(g.Policies) > 0 {
			for _, p := range g.Policies {
				if p == "" || strings.ContainsAny(p, ", \t\n") {
					t.Fatalf("ParseGrid(%q) accepted policy name %q", s, p)
				}
			}
			clauses = append(clauses, "policy="+strings.Join(g.Policies, ","))
		}
		for _, axis := range []struct {
			name string
			vals []int
		}{{"queuecap", g.QueueCaps}, {"colibriq", g.ColibriQueues}, {"backoff", g.Backoffs}} {
			for _, v := range axis.vals {
				if v < 0 {
					t.Fatalf("ParseGrid(%q) accepted %s value %d", s, axis.name, v)
				}
			}
			if len(axis.vals) > 0 {
				clauses = append(clauses, axis.name+"="+joinInts(axis.vals))
			}
		}
		again, err := ParseGrid(strings.Join(clauses, " "))
		if err != nil || !reflect.DeepEqual(again, g) {
			t.Fatalf("ParseGrid(%q) = %+v does not round-trip: %+v, %v", s, g, again, err)
		}
	})
}

func FuzzParseParams(f *testing.F) {
	for _, s := range []string{"", "kernel=amoadd iters=500", "wait=mwait variant=central", "k=", "=v",
		"novalue", "a=1 a=2", "a=b=c", "a=\"1|b=2\""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		params, err := ParseParams(s)
		if err != nil {
			return
		}
		var clauses []string
		for k, v := range params {
			if k == "" || strings.Contains(k, "=") {
				t.Fatalf("ParseParams(%q) accepted key %q", s, k)
			}
			clauses = append(clauses, k+"="+v)
		}
		sort.Strings(clauses)
		again, err := ParseParams(strings.Join(clauses, " "))
		if err != nil || !reflect.DeepEqual(again, params) {
			t.Fatalf("ParseParams(%q) = %v does not round-trip: %v, %v", s, params, again, err)
		}
	})
}

// FuzzCacheGet's oracle is the one entry format Put writes,
// json.Marshal(entry{key, p}). A hit needs that exact envelope around
// the point — {"key":<json.Marshal(key)>,"point": ... } — and returns
// the point the full decode of the bytes holds; the canonical entry for
// any point the bytes decode to is always a hit, with that point. The
// gzip-entry and truncated-gzip seeds stay in the corpus as corrupt
// inputs, which must read as misses.
func FuzzCacheGet(f *testing.F) {
	c := newCache(f.TempDir())
	f.Fuzz(func(t *testing.T, key string, b []byte) {
		writeEntry(t, c, key, b)
		p, hit := c.Get(key)
		var e entry
		decoded := json.Unmarshal(b, &e) == nil
		if hit {
			k, _ := json.Marshal(key)
			head := `{"key":` + string(k) + `,"point":`
			if !bytes.HasPrefix(b, []byte(head)) || !bytes.HasSuffix(b, []byte("}")) {
				t.Fatalf("Get hit on a non-canonical envelope %q", b)
			}
			if !decoded || !reflect.DeepEqual(p, e.Point) {
				t.Fatalf("Get returned %+v, the entry holds %+v (decoded=%v)", p, e.Point, decoded)
			}
		}
		if !decoded {
			return
		}
		canon, err := json.Marshal(entry{Key: key, Point: e.Point})
		if err != nil {
			t.Fatal(err)
		}
		writeEntry(t, c, key, canon)
		got, ok := c.Get(key)
		if !ok {
			t.Fatalf("Get missed the canonical entry %s", canon)
		}
		if again, _ := json.Marshal(entry{Key: key, Point: got}); !bytes.Equal(again, canon) {
			t.Fatalf("canonical entry %s read back as %s", canon, again)
		}
	})
}

// FuzzDecodePoint is the cache's point decoder against json.Unmarshal:
// any body decodePoint accepts decodes to what json.Unmarshal gives,
// and json.Marshal of any point json.Unmarshal gives is accepted and
// marshals back to the same bytes.
func FuzzDecodePoint(f *testing.F) {
	for _, p := range []Point{
		{X: 16, Throughput: 0.1679, MinPerCore: 0.004333333333333333, MaxPerCore: 0.00875},
		{X: 4, Rel: 0.9375, BaselineOps: 1250000.5, LoadedOps: 1171875},
		{X: 1, Label: "with LRSCwait1", Params: "1 queue slot", AreaKGE: 790.008, OverheadPct: 14.328219971056445, PaperKGE: 790},
		{X: 2, Label: "lrsc", Backoff: 128, PowerMW: 166.2405888, PJPerOp: 32.306999999999995, DeltaPct: 54.71219231874338, PaperPJ: 884},
		{X: 3, Throughput: 1e-7, Extra: map[string]float64{"": 1, "a<b": -2.5, "retries": 0}},
		{Label: "a<b \"q\" é\x01 "},
	} {
		b, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var want Point
		err := json.Unmarshal(b, &want)
		if got, ok := decodePoint(b); ok && (err != nil || !reflect.DeepEqual(got, want)) {
			t.Fatalf("decodePoint(%q) = %+v, json.Unmarshal gives %+v (err %v)", b, got, want, err)
		}
		if err != nil {
			return
		}
		canon, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decodePoint(canon)
		if !ok {
			t.Fatalf("decodePoint rejected json.Marshal's %s", canon)
		}
		if again, _ := json.Marshal(got); !bytes.Equal(again, canon) {
			t.Fatalf("%s decoded back as %s", canon, again)
		}
	})
}

// FuzzResultJSON holds Result.JSON to json.MarshalIndent(r, "", "  ")
// and a newline: the same bytes, and an error exactly where it errors.
// The result comes from the JSON input, seeded with every committed
// JSON golden, and the string and float arguments are planted in its
// last point, as a label, a metric name and that metric's value, to
// reach what no JSON input decodes to: invalid UTF-8, NaN and ±Inf.
func FuzzResultJSON(f *testing.F) {
	for _, b := range goldenJSON(f) {
		f.Add(b, "", 0.0)
	}
	policy, queueCap := "lrsc", 2
	for _, c := range []struct {
		r Result
		s string
		v float64
	}{
		{Result{}, "", 0},
		{Result{Series: []Series{}}, "", 0},
		{Result{Job: Job{Kind: "fig3", Params: map[string]string{"a<b": "é"}}, NotRun: []string{"x under y", "<&>"},
			Series: []Series{{Name: "nil points"}, {Name: "empty <points>", Grid: &GridCoord{}, Points: []Point{}},
				{Name: "grid", Grid: &GridCoord{Policy: &policy, QueueCap: &queueCap}, Points: []Point{{X: -1}}}}}, "", 0},
		{Result{Series: []Series{{Name: "p", Points: []Point{{X: 1, Label: "a\"b\\c", Throughput: 1e-7, Rel: 1e21, PowerMW: 1e20,
			Backoff: 128, Params: "q=1 & r=2", Extra: map[string]float64{"": 1, "a\"b": -2.5, "<": 0, "\u2028": 5e-324}}}}}}, "é", math.Copysign(0, -1)},
		{Result{Series: []Series{{Name: "p", Points: []Point{{X: 2}}}}}, "\u2028", 1e-7},
		{Result{Series: []Series{{Name: "p", Points: []Point{{X: 3}}}}}, "\xff<", 1e21},
		{Result{Series: []Series{{Name: "p", Points: []Point{{X: 4}}}}}, "throughput", math.NaN()},
		{Result{Series: []Series{{Name: "p", Points: []Point{{X: 5}}}}}, "x", math.Inf(1)},
		{Result{Series: []Series{{Name: "p", Points: []Point{{X: 6}}}}}, "rel", math.Inf(-1)},
	} {
		b, err := json.Marshal(c.r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, c.s, c.v)
	}
	f.Fuzz(func(t *testing.T, b []byte, s string, v float64) {
		var r Result
		if json.Unmarshal(b, &r) != nil {
			return
		}
		if n := len(r.Series); n > 0 {
			if ps := r.Series[n-1].Points; len(ps) > 0 {
				p := &ps[len(ps)-1]
				p.Label = s
				p.SetMetric(s, v)
			}
		}
		want, wantErr := json.MarshalIndent(&r, "", "  ")
		got, err := r.JSON()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Result.JSON error %v, json.MarshalIndent error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("Result.JSON wrote\n%s\njson.MarshalIndent writes\n%s", got, want)
		}
	})
}
