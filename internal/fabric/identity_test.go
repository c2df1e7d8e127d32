package fabric

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// normScenario is a cacheable single-point scenario that counts its
// Normalize calls and refuses params fail=1 in Normalize, past every
// syntax check jobFromQuery makes.
type normScenario struct {
	normalized atomic.Int64
}

func (s *normScenario) Name() string { return "fabrictest-norm" }
func (s *normScenario) Normalize(job sweep.Job, topo noc.Topology) (sweep.Job, error) {
	s.normalized.Add(1)
	if job.Params["fail"] != "" {
		return job, fmt.Errorf("sweep: fabrictest-norm: refused")
	}
	return job, nil
}
func (s *normScenario) Reads() sweep.Field { return sweep.FieldParams }
func (s *normScenario) Curves(topo noc.Topology, job sweep.Job) ([]sweep.Curve, error) {
	return []sweep.Curve{{
		Name:      "norm",
		NumPoints: 1,
		Sim:       true,
		Key:       func(_ string, pt int) string { return fmt.Sprintf("pt%d", pt) },
		Run: func(_ experiments.Policy, pt int) sweep.Point {
			return sweep.Point{X: pt, Throughput: 3}
		},
	}}, nil
}

var normSc = func() *normScenario {
	s := &normScenario{}
	sweep.MustRegister(s)
	return s
}()

// memoLen is how many derived jobs srv's identity memo holds.
func memoLen(srv *Server) int {
	srv.idents.mu.Lock()
	defer srv.idents.mu.Unlock()
	return len(srv.idents.m)
}

// memoized is the derived job srv's identity memo holds for the path's
// kind and raw query, or nil.
func memoized(srv *Server, kind, rawQuery string) *derivedJob {
	srv.idents.mu.Lock()
	defer srv.idents.mu.Unlock()
	return srv.idents.m[identityKey{kind, rawQuery}]
}

// kindRequest is a /v1/kind request as the mux hands it to handleKind,
// with its path value set.
func kindRequest(kind, rawQuery string) *http.Request {
	r := &http.Request{URL: &url.URL{RawQuery: rawQuery}}
	r.SetPathValue("name", kind)
	return r
}

// TestServeIdentityMemo pins that a repeat of one kind and raw query
// derives its job once: ten requests for it, hits and revalidations,
// normalize it only for the first, and every answer carries the same
// ETag.
func TestServeIdentityMemo(t *testing.T) {
	srv := NewServer(nil, WithRegistry(obs.NewRegistry()))
	h := srv.Handler()
	serve := func(inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/v1/kind/"+normSc.Name()+"?topo=small&format=csv", nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	first := serve("")
	etag := first.Header().Get("ETag")
	if first.Code != http.StatusOK || etag == "" {
		t.Fatalf("first GET: %d, ETag %q\n%s", first.Code, etag, first.Body)
	}
	// The first request normalizes once to derive the job and again in
	// the Runner; a repeat should do neither.
	normalized := normSc.normalized.Load()
	for i := 0; i < 9; i++ {
		inm, code := "", http.StatusOK
		if i%3 == 2 {
			inm, code = etag, http.StatusNotModified
		}
		rec := serve(inm)
		if rec.Code != code || rec.Header().Get("ETag") != etag {
			t.Fatalf("repeat %d: %d (want %d), ETag %q (want %q)", i, rec.Code, code, rec.Header().Get("ETag"), etag)
		}
		if code == http.StatusOK && rec.Body.String() != first.Body.String() {
			t.Fatalf("repeat %d served other bytes:\n%s\nfirst:\n%s", i, rec.Body, first.Body)
		}
	}
	if n := normSc.normalized.Load() - normalized; n != 0 {
		t.Fatalf("nine repeats normalized %d times, want 0", n)
	}
	if n := memoLen(srv); n != 1 {
		t.Fatalf("memo holds %d derived jobs, want 1", n)
	}
}

// TestServeIdentityMemoRefusals pins that a query that fails to parse
// or to normalize answers 400 on every request and is never stored, so
// each request derives it again.
func TestServeIdentityMemoRefusals(t *testing.T) {
	srv := NewServer(nil, WithRegistry(obs.NewRegistry()))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, q := range []string{
		"topo=small&bogus=1",         // unknown key
		"topo=small&format=xml",      // bad format
		"topo=small&topo=mempool",    // repeated key
		"topo=galaxy",                // unknown topology
		"topo=small&bins=4",          // a field the kind does not read
		"topo=small&params=fail%3D1", // refused by the scenario's Normalize
	} {
		for i := 0; i < 3; i++ {
			normalized := normSc.normalized.Load()
			resp, body := get(t, ts.URL+"/v1/kind/"+normSc.Name()+"?"+q, nil)
			if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("ETag") != "" {
				t.Fatalf("%s request %d: %s, ETag %q, want 400 without one\n%s", q, i, resp.Status, resp.Header.Get("ETag"), body)
			}
			if q == "topo=small&params=fail%3D1" && normSc.normalized.Load() == normalized {
				t.Fatalf("%s request %d was not normalized again", q, i)
			}
		}
		if d := memoized(srv, normSc.Name(), q); d != nil || memoLen(srv) != 0 {
			t.Fatalf("%s: memo holds %d derived jobs (this one: %v), want none", q, memoLen(srv), d != nil)
		}
	}
}

// TestServeIdentityMemoBound pins the memo's bounds: more distinct valid
// queries than identityMemoCap, derived from several goroutines at
// once, never leave more than identityMemoCap derived jobs stored; a
// query derived again after the memo was cleared derives the same job;
// and a query longer than identityMemoMaxQuery is not stored.
func TestServeIdentityMemoBound(t *testing.T) {
	srv := NewServer(nil, WithRegistry(obs.NewRegistry()))
	firstQuery := "topo=small&params=i%3D0"
	first, err := srv.derive(kindRequest(normSc.Name(), firstQuery))
	if err != nil {
		t.Fatal(err)
	}
	// Four goroutines derive disjoint queries at once, so the race
	// detector sees the memo's lookups, stores and clears interleave.
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1 + g; i < identityMemoCap+identityMemoCap/2; i += goroutines {
				if _, err := srv.derive(kindRequest(normSc.Name(), fmt.Sprintf("topo=small&params=i%%3D%d", i))); err != nil {
					t.Error(err)
					return
				}
				if n := memoLen(srv); n > identityMemoCap {
					t.Errorf("the memo holds %d derived jobs, over its bound %d", n, identityMemoCap)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if memoized(srv, normSc.Name(), firstQuery) != nil {
		t.Fatal("the first query outlived a full memo")
	}
	again, err := srv.derive(kindRequest(normSc.Name(), firstQuery))
	if err != nil {
		t.Fatal(err)
	}
	if again == first || again.id != first.id || again.etag != first.etag || !reflect.DeepEqual(again.norm, first.norm) {
		t.Fatalf("derived again after the memo was cleared: %+v, want a new %+v", again, first)
	}
	// A valid query longer than identityMemoMaxQuery derives, but is
	// never stored.
	long := "topo=small&params=i%3D" + strings.Repeat("x", identityMemoMaxQuery)
	n := memoLen(srv)
	for i := 0; i < 2; i++ {
		d, err := srv.derive(kindRequest(normSc.Name(), long))
		if err != nil {
			t.Fatalf("long query: %v", err)
		}
		if d.id == "" || d.etag == "" {
			t.Fatalf("long query derived no identity: %+v", d)
		}
	}
	if memoized(srv, normSc.Name(), long) != nil || memoLen(srv) != n {
		t.Fatalf("the memo stored a %d-byte query", len(long))
	}
}

// TestServeIdentityMemoNotMutated pins that computing a memoized job
// leaves it as derived: the Runner, expand and the renderers read the
// Params map and the Bins and Grid slices the memo shares across
// requests, and must not write them. Concurrent requests let the race
// detector see any write.
func TestServeIdentityMemoNotMutated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a run job on the small topology")
	}
	srv := NewServer(nil, WithRegistry(obs.NewRegistry()), WithWorkers(2))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const kind = "run"
	// Bins out of order and a grid axis whose values Normalize sorts.
	const query = "topo=small&warmup=300&measure=1500&bins=4,1&params=kernel%3Dhistogram&grid=policy%3Dlrscwait,colibri"
	formats := []string{"json", "csv", "table"}
	derived := map[string]*derivedJob{}
	want := map[string]sweep.Job{}
	for _, format := range formats {
		d, err := srv.derive(kindRequest(kind, query+"&format="+format))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := json.Marshal(d.norm)
		if err != nil {
			t.Fatal(err)
		}
		var w sweep.Job
		if err := json.Unmarshal(spec, &w); err != nil {
			t.Fatal(err)
		}
		if len(w.Params) == 0 || len(w.Bins) == 0 || w.Grid.IsZero() {
			t.Fatalf("job %s lacks params, bins or a grid", spec)
		}
		derived[format], want[format] = d, w
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, format := range formats {
				resp, err := http.Get(ts.URL + "/v1/kind/" + kind + "?" + query + "&format=" + format)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s: %s, %v\n%s", format, resp.Status, err, body)
				}
			}
		}()
	}
	wg.Wait()
	for _, format := range formats {
		d, w := derived[format], want[format]
		if got := memoized(srv, kind, query+"&format="+format); got != d {
			t.Fatalf("%s: the requests did not read the memoized job", format)
		}
		if !reflect.DeepEqual(d.norm.Params, w.Params) || !reflect.DeepEqual(d.norm.Bins, w.Bins) ||
			!reflect.DeepEqual(d.norm.Grid, w.Grid) {
			t.Fatalf("%s: computing the job changed it:\n%+v\nwant\n%+v", format, d.norm, w)
		}
	}
}

// TestEtagMatches pins If-None-Match parsing.
func TestEtagMatches(t *testing.T) {
	const etag = `"0123abcd-json"`
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{`"0123abcd-json"`, true},
		{`"other-json", "0123abcd-json"`, true},
		{`"other-json",   "0123abcd-json"  ,"more"`, true},
		{`W/"0123abcd-json"`, true},
		{`"other-json", W/"0123abcd-json"`, true},
		{`*`, true},
		{`"other-json", *`, true},
		{`"0123abcd-csv"`, false},
		{`"other-json", W/"0123abcd-csv"`, false},
		{`0123abcd-json`, false},
		{`,`, false},
		{` `, false},
	} {
		if got := etagMatches(tc.header, etag); got != tc.want {
			t.Errorf("etagMatches(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { etagMatches(`"a", W/"b", "0123abcd-json"`, etag) }); n != 0 {
		t.Errorf("etagMatches allocates %v times per call, want 0", n)
	}
}
