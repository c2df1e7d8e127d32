package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/obs"
	_ "repro/internal/patterns" // registers barrier, rcu and comblock
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Reduced windows keep every test on the 16-core topology fast while
// still running real simulations (mirrors the sweep package's own
// suite).
const (
	testWarmup  = 300
	testMeasure = 1500
)

// testQuery builds the /v1/kind query for a kind at test scale.
func testQuery(kind sweep.Kind) url.Values {
	q := url.Values{}
	q.Set("topo", "small")
	if kind != sweep.TableI { // the area model reads no windows
		q.Set("warmup", "300")
		q.Set("measure", "1500")
	}
	switch kind {
	case sweep.Fig3, sweep.Fig4:
		q.Set("bins", "1,4")
	case sweep.Fig5:
		q.Set("bins", "1")
		q.Set("matn", "16")
	}
	return q
}

// testJob is the local-runner equivalent of testQuery.
func testJob(kind sweep.Kind) sweep.Job {
	j := sweep.Job{Kind: kind, Topo: "small", Warmup: testWarmup, Measure: testMeasure}
	switch kind {
	case sweep.Fig3, sweep.Fig4:
		j.Bins = []int{1, 4}
	case sweep.Fig5:
		j.Bins = []int{1}
		j.MatN = 16
	case sweep.TableI:
		// The area model reads no windows.
		j.Warmup, j.Measure = 0, 0
	}
	return j
}

func newDiskCache(t *testing.T) *sweep.Cache {
	t.Helper()
	c, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// memoHits is how many /v1/kind requests reg timed as answered from
// the server's memory.
func memoHits(reg *obs.Registry) uint64 {
	return reg.Snapshot().Histograms["fabric.latency.memo"].Count
}

func get(t *testing.T, rawURL string, hdr http.Header) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestServeColdWarmConditional is the service's core contract: a cold
// GET computes (miss), an identical warm GET serves byte-identical
// output with zero simulations executed (hit), and a conditional
// re-fetch against the returned ETag costs a 304 with no body.
func TestServeColdWarmConditional(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(newDiskCache(t), WithRegistry(reg), WithWorkers(4))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	u := ts.URL + "/v1/kind/fig6?" + testQuery(sweep.Fig6).Encode()

	resp, cold := get(t, u, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold GET: %s\n%s", resp.Status, cold)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("cold GET returned no ETag")
	}
	snap := reg.Snapshot()
	if snap.Counter("fabric.misses") != 1 || snap.Counter("fabric.hits") != 0 {
		t.Fatalf("after cold GET: misses=%d hits=%d, want 1/0",
			snap.Counter("fabric.misses"), snap.Counter("fabric.hits"))
	}
	executedCold := snap.Counter("sweep.points.executed")
	if executedCold == 0 {
		t.Fatal("cold GET executed no simulations")
	}

	resp, warm := get(t, u, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm GET: %s", resp.Status)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm GET bytes differ from cold GET")
	}
	snap = reg.Snapshot()
	if got := snap.Counter("sweep.points.executed"); got != executedCold {
		t.Fatalf("warm GET executed %d simulations, want 0", got-executedCold)
	}
	if snap.Counter("fabric.hits") != 1 {
		t.Fatalf("after warm GET: hits=%d, want 1", snap.Counter("fabric.hits"))
	}

	resp, body := get(t, u, http.Header{"If-None-Match": {etag}})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: %s, want 304", resp.Status)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	if reg.Snapshot().Counter("fabric.not_modified") != 1 {
		t.Fatal("fabric.not_modified not counted")
	}

	// A different format is a different entity: same identity prefix,
	// different ETag, so the json ETag must not 304 a csv request.
	resp, _ = get(t, u+"&format=csv", http.Header{"If-None-Match": {etag}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv GET with json ETag: %s, want 200", resp.Status)
	}
}

// TestServeFig4ReadsFig3Points checks that the service simulates a
// curve once however many figures plot it: Fig. 4's colibri and lrsc
// curves are Fig. 3's, so after a fig3 request a fig4 request on small
// reads those 14 points (7 bins × 2 curves) from the backend and
// simulates only its other 28, and still serves the bytes a cache-free
// run emits.
func TestServeFig4ReadsFig3Points(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(newDiskCache(t), WithRegistry(reg), WithWorkers(4))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	query := func(kind sweep.Kind) string {
		q := testQuery(kind)
		q.Del("bins") // every default bin count of small
		return fmt.Sprintf("%s/v1/kind/%s?%s", ts.URL, kind, q.Encode())
	}

	if resp, body := get(t, query(sweep.Fig3), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("fig3: %s\n%s", resp.Status, body)
	}
	before := reg.Snapshot()
	resp, got := get(t, query(sweep.Fig4), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fig4: %s\n%s", resp.Status, got)
	}
	after := reg.Snapshot()
	cached := after.Counter("sweep.points.cached") - before.Counter("sweep.points.cached")
	executed := after.Counter("sweep.points.executed") - before.Counter("sweep.points.executed")
	if cached != 14 || executed != 28 {
		t.Errorf("fig4 after fig3 read %d points from the backend and simulated %d; want 14 and 28",
			cached, executed)
	}

	job := sweep.Job{Kind: sweep.Fig4, Topo: "small", Warmup: testWarmup, Measure: testMeasure}
	res, _, err := (&sweep.Runner{Workers: 4, Obs: obs.NewRegistry()}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fig4 served after fig3 differs from a cache-free run\nserved:\n%s\nwant:\n%s", got, want)
	}
}

// TestServeAllKindsByteIdentity pins the acceptance bar: every built-in
// kind served over HTTP in every format, on a first fetch and on a
// repeat, is byte-identical to the CLI path (the Result emitters on a
// local Runner).
func TestServeAllKindsByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("seven full kinds")
	}
	cache := newDiskCache(t)
	reg := obs.NewRegistry()
	srv := NewServer(cache, WithRegistry(reg), WithWorkers(4))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, kind := range sweep.Kinds() {
		runner := sweep.Runner{Workers: 4, Cache: cache, Obs: obs.NewRegistry()}
		res, _, err := runner.Run(testJob(kind))
		if err != nil {
			t.Fatalf("%s: local run: %v", kind, err)
		}
		wantJSON, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][]byte{
			"json":  wantJSON,
			"csv":   []byte(res.CSV()),
			"table": []byte(res.Table().String()),
		}
		// The second fetch of each format is answered from the server's
		// memory of the finished job and must serve the same bytes.
		for format, wantBytes := range want {
			u := fmt.Sprintf("%s/v1/kind/%s?%s&format=%s", ts.URL, kind, testQuery(kind).Encode(), format)
			for fetch := 1; fetch <= 2; fetch++ {
				resp, got := get(t, u, nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s fetch %d: %s\n%s", kind, format, fetch, resp.Status, got)
				}
				if !bytes.Equal(got, wantBytes) {
					t.Errorf("%s %s fetch %d: HTTP bytes differ from CLI emitter\nhttp:\n%s\ncli:\n%s",
						kind, format, fetch, got, wantBytes)
				}
			}
		}
	}
	if memoHits(reg) == 0 {
		t.Fatal("no repeat fetch was answered from memory")
	}
}

// slowScenario is an uncacheable single-point scenario whose Run sleeps,
// widening the coalescing window and counting executions.
type slowScenario struct {
	runs atomic.Int64
}

func (s *slowScenario) Name() string { return "fabrictest-slow" }
func (s *slowScenario) Normalize(job sweep.Job, topo noc.Topology) (sweep.Job, error) {
	return job, nil
}
func (s *slowScenario) Reads() sweep.Field { return 0 }
func (s *slowScenario) Curves(topo noc.Topology, job sweep.Job) ([]sweep.Curve, error) {
	return []sweep.Curve{{
		Name:      "slow",
		NumPoints: 1,
		Run: func(_ experiments.Policy, pt int) sweep.Point {
			s.runs.Add(1)
			time.Sleep(500 * time.Millisecond)
			return sweep.Point{X: 1, Throughput: 42}
		},
	}}, nil
}

var slowSc = func() *slowScenario {
	s := &slowScenario{}
	sweep.MustRegister(s)
	return s
}()

// TestServeCoalescing is the singleflight contract: N concurrent
// identical cold requests perform exactly one computation; the joiners
// count under fabric.coalesced and return the same bytes.
func TestServeCoalescing(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(newDiskCache(t), WithRegistry(reg), WithWorkers(2))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	slowSc.runs.Store(0)

	const n = 4
	u := ts.URL + "/v1/kind/" + slowSc.Name() + "?topo=small"
	start := make(chan struct{})
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, body := get(t, u, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %s", i, resp.Status)
			}
			bodies[i] = body
		}(i)
	}
	close(start)
	wg.Wait()
	if got := slowSc.runs.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran the scenario %d times, want exactly 1", n, got)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("coalesced response %d differs from leader's", i)
		}
	}
	if got := reg.Snapshot().Counter("fabric.coalesced"); got != n-1 {
		t.Fatalf("fabric.coalesced = %d, want %d", got, n-1)
	}

	// A later request, made alone, is answered from the finished
	// flight: the scenario's point has no cache key, but the job's
	// identity fixes its result all the same.
	if resp, body := get(t, u, nil); resp.StatusCode != http.StatusOK || !bytes.Equal(body, bodies[0]) {
		t.Fatalf("later request: %s, same bytes %v", resp.Status, bytes.Equal(body, bodies[0]))
	}
	if got := slowSc.runs.Load(); got != 1 {
		t.Fatalf("uncacheable scenario ran %d times after a later request, want 1", got)
	}
	if got := memoHits(reg); got != 1 {
		t.Fatalf("fabric.latency.memo count = %d after a later request, want 1", got)
	}
}

// TestServeDegradedRemoteDown is the graceful-degradation contract: a
// server whose backend is an unreachable remote still answers correctly
// by computing locally, and counts the degradation.
func TestServeDegradedRemoteDown(t *testing.T) {
	reg := obs.NewRegistry()
	// 127.0.0.1:1 refuses connections immediately; one attempt keeps
	// the retry budget cheap.
	dead := NewRemote("http://127.0.0.1:1", RemoteRetries(1, time.Millisecond))
	srv := NewServer(dead, WithRegistry(reg), WithWorkers(2))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// table2's rows are cacheable simulated points, so the dead remote
	// is actually consulted (table1's rows carry no cache key at all).
	kind := sweep.TableII
	resp, got := get(t, ts.URL+"/v1/kind/"+string(kind)+"?"+testQuery(kind).Encode(), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET with dead remote: %s\n%s", resp.Status, got)
	}
	runner := sweep.Runner{Workers: 2, Obs: obs.NewRegistry()}
	res, _, err := runner.Run(testJob(kind))
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded response differs from local compute")
	}
	if reg.Snapshot().Counter("fabric.degraded") == 0 {
		t.Fatal("fabric.degraded not counted")
	}
}

// TestWorkerEndToEnd drives the full worker protocol: a worker joins
// over HTTP, the serve node dispatches a cold job's points to it, the
// worker computes and publishes them through the shared backend, and
// the coordinator's Runner reads them back without simulating, into a
// response byte-identical to a local run.
func TestWorkerEndToEnd(t *testing.T) {
	sreg := obs.NewRegistry()
	cache := newDiskCache(t)
	srv := NewServer(cache, WithRegistry(sreg), WithWorkers(2))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wreg := obs.NewRegistry()
	w := &Worker{
		Coordinator: ts.URL,
		Name:        "test-worker",
		Workers:     2,
		Wait:        200 * time.Millisecond,
		Obs:         wreg,
	}
	wctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(wctx) }()
	defer func() {
		cancel()
		select {
		case <-workerDone:
		case <-time.After(5 * time.Second):
			t.Error("worker did not exit after cancel")
		}
	}()

	// Wait until the worker is parked in a lease poll, so the GET takes
	// the dispatch path rather than computing in-process.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.disp.workersPresent() {
		if time.Now().After(deadline) {
			t.Fatal("worker never joined")
		}
		time.Sleep(10 * time.Millisecond)
	}

	kind := sweep.Fig6
	resp, got := get(t, ts.URL+"/v1/kind/"+string(kind)+"?"+testQuery(kind).Encode(), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dispatched GET: %s\n%s", resp.Status, got)
	}

	other := obs.NewRegistry()
	runner := sweep.Runner{Workers: 2, Obs: other}
	res, _, err := runner.Run(testJob(kind))
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("distributed response differs from local run")
	}
	if sreg.Snapshot().Counter("fabric.dispatch.jobs") == 0 {
		t.Fatal("job was not dispatched")
	}
	if wreg.Snapshot().Counter("fabric.worker.points") == 0 {
		t.Fatal("worker computed no points")
	}
	if n := sreg.Snapshot().Counter("sweep.points.executed"); n != 0 {
		t.Fatalf("coordinator simulated %d points the worker had computed", n)
	}
}

// TestTieredBackend exercises the layering logic with two disk caches:
// local miss falls through to remote and back-fills, writes go through
// to both layers.
func TestTieredBackend(t *testing.T) {
	local, remote := newDiskCache(t), newDiskCache(t)
	reg := obs.NewRegistry()
	tb := NewTiered(local, remote).ScopedBackend(reg).(*Tiered)

	// Remote-only entry: Get falls through and back-fills local.
	if err := remote.Put("k1", sweep.Point{X: 7}); err != nil {
		t.Fatal(err)
	}
	p, ok := tb.Get("k1")
	if !ok || p.X != 7 {
		t.Fatalf("tiered Get(k1) = %+v, %v", p, ok)
	}
	if reg.Snapshot().Counter("fabric.tiered.remote_hits") != 1 {
		t.Fatal("remote hit not counted")
	}
	if p, ok := local.Get("k1"); !ok || p.X != 7 {
		t.Fatal("remote hit did not back-fill the local layer")
	}

	// Write-through: both layers see the Put.
	if err := tb.Put("k2", sweep.Point{X: 9}); err != nil {
		t.Fatal(err)
	}
	if _, ok := local.Get("k2"); !ok {
		t.Fatal("Put missed the local layer")
	}
	if _, ok := remote.Get("k2"); !ok {
		t.Fatal("Put missed the remote layer")
	}

	// Local hit never consults the remote counterfeit.
	if err := local.Put("k3", sweep.Point{X: 1}); err != nil {
		t.Fatal(err)
	}
	if err := remote.Put("k3", sweep.Point{X: 2}); err != nil {
		t.Fatal(err)
	}
	if p, _ := tb.Get("k3"); p.X != 1 {
		t.Fatalf("tiered Get(k3).X = %d, want the local layer's 1", p.X)
	}
}

// TestRemoteRetryAndDefinitiveMiss pins the client's failure posture:
// 5xx retries with backoff until success, 404 is a definitive miss with
// no retry, and Put round-trips.
func TestRemoteRetryAndDefinitiveMiss(t *testing.T) {
	var gets atomic.Int64
	fail := atomic.Bool{}
	fail.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cache", func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		key := r.URL.Query().Get("key")
		if key == "missing" {
			http.NotFound(w, r)
			return
		}
		if fail.CompareAndSwap(true, false) {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(CacheEntry{Key: key, Point: sweep.Point{X: 5}})
	})
	var put CacheEntry
	mux.HandleFunc("PUT /v1/cache", func(w http.ResponseWriter, r *http.Request) {
		json.NewDecoder(r.Body).Decode(&put)
		w.WriteHeader(http.StatusNoContent)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	reg := obs.NewRegistry()
	rem := NewRemote(ts.URL, RemoteRetries(3, time.Millisecond)).ScopedBackend(reg).(*Remote)
	p, ok := rem.Get("k")
	if !ok || p.X != 5 {
		t.Fatalf("Get after transient failure = %+v, %v", p, ok)
	}
	if got := gets.Load(); got != 2 {
		t.Fatalf("transient 500 took %d attempts, want 2", got)
	}

	gets.Store(0)
	if _, ok := rem.Get("missing"); ok {
		t.Fatal("404 reported as a hit")
	}
	if got := gets.Load(); got != 1 {
		t.Fatalf("definitive 404 took %d attempts, want 1 (no retry)", got)
	}
	if reg.Snapshot().Counter("fabric.degraded") != 0 {
		t.Fatal("definitive miss counted as degradation")
	}

	if err := rem.Put("pk", sweep.Point{X: 3}); err != nil {
		t.Fatal(err)
	}
	if put.Key != "pk" || put.Point.X != 3 {
		t.Fatalf("Put sent %+v", put)
	}
}

// TestServerHTTPSurface drives the real server's cache, health, metrics
// and registry endpoints, and a Remote against the real cache API
// instead of a stand-in mux: a Put reads back as the identical point,
// an unknown key is a miss, and the error statuses are the documented
// ones.
func TestServerHTTPSurface(t *testing.T) {
	reg := obs.NewRegistry()
	backed := httptest.NewServer(NewServer(newDiskCache(t), WithRegistry(reg)).Handler())
	defer backed.Close()
	bare := httptest.NewServer(NewServer(nil, WithRegistry(reg)).Handler())
	defer bare.Close()

	rem := NewRemote(backed.URL, RemoteRetries(1, time.Millisecond)).ScopedBackend(reg).(*Remote)
	want := sweep.Point{X: 4, Label: "row", Throughput: 0.375, BaselineOps: 12.5,
		Backoff: 64, Params: "q=4", Extra: map[string]float64{"sleep_cycles": 1234.5}}
	if err := rem.Put("round-trip", want); err != nil {
		t.Fatal(err)
	}
	if got, ok := rem.Get("round-trip"); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Remote.Get after Put = %+v, %v; want %+v", got, ok, want)
	}
	if _, ok := rem.Get("never-stored"); ok {
		t.Fatal("unknown key read as a hit")
	}
	if n := reg.Snapshot().Counter("fabric.degraded"); n != 0 {
		t.Fatalf("fabric.degraded = %d, want 0 (a 404 is a definitive miss)", n)
	}

	for _, tc := range []struct {
		name   string
		url    string
		status int
		check  func(t *testing.T, body []byte)
	}{
		{"cache get stored key", backed.URL + "/v1/cache?key=round-trip", http.StatusOK,
			func(t *testing.T, body []byte) {
				var e CacheEntry
				if err := json.Unmarshal(body, &e); err != nil {
					t.Fatal(err)
				}
				if e.Key != "round-trip" || !reflect.DeepEqual(e.Point, want) {
					t.Fatalf("entry = %+v, want key round-trip and %+v", e, want)
				}
			}},
		{"cache get unknown key", backed.URL + "/v1/cache?key=never-stored", http.StatusNotFound, nil},
		{"cache get without key", backed.URL + "/v1/cache", http.StatusBadRequest, nil},
		{"cache get nil backend", bare.URL + "/v1/cache?key=round-trip", http.StatusServiceUnavailable, nil},
		{"healthz", backed.URL + "/healthz", http.StatusOK,
			func(t *testing.T, body []byte) {
				if got := strings.TrimSpace(string(body)); got != "ok" {
					t.Fatalf("body = %q, want ok", got)
				}
			}},
		{"metricz", backed.URL + "/metricz", http.StatusOK,
			func(t *testing.T, body []byte) {
				if !json.Valid(body) {
					t.Fatalf("invalid JSON: %s", body)
				}
				if !strings.Contains(string(body), "fabric.remote.puts") {
					t.Fatalf("metric dump lacks this test's fabric.remote.puts: %s", body)
				}
			}},
		{"kinds", backed.URL + "/v1/kinds", http.StatusOK,
			func(t *testing.T, body []byte) {
				var kinds []string
				if err := json.Unmarshal(body, &kinds); err != nil {
					t.Fatal(err)
				}
				for _, k := range kinds {
					if k == string(sweep.Fig3) {
						return
					}
				}
				t.Fatalf("kinds = %v, want fig3 listed", kinds)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, tc.url, nil)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %q)", resp.StatusCode, tc.status, body)
			}
			if tc.check != nil {
				tc.check(t, body)
			}
		})
	}
}

// TestServerScopesBackendMetrics pins that a server built WithRegistry
// counts the traffic of its /v1/cache surface in that registry, not in
// the process-wide default one.
func TestServerScopesBackendMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewServer(newDiskCache(t), WithRegistry(reg)).Handler())
	defer ts.Close()
	rem := NewRemote(ts.URL, RemoteRetries(1, time.Millisecond)).ScopedBackend(obs.NewRegistry())
	if err := rem.Put("scoped", sweep.Point{X: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := rem.Get("scoped"); !ok {
		t.Fatal("stored point missed")
	}
	snap := reg.Snapshot()
	if snap.Counter("sweep.cache.stores") != 1 || snap.Counter("sweep.cache.hits") != 1 {
		t.Fatalf("server registry: sweep.cache.stores=%d hits=%d, want 1/1",
			snap.Counter("sweep.cache.stores"), snap.Counter("sweep.cache.hits"))
	}
}

// TestServerCachePutOneValue pins that a cache PUT stores exactly one
// JSON entry: a body holding a second entry or trailing junk is a 400
// and stores nothing, while trailing whitespace is fine.
func TestServerCachePutOneValue(t *testing.T) {
	h := NewServer(newDiskCache(t), WithRegistry(obs.NewRegistry())).Handler()
	put := func(body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/cache", strings.NewReader(body)))
		return rec.Code
	}
	for _, body := range []string{
		`{"key":"a","point":{"x":1}}{"key":"b","point":{"x":2}}`,
		`{"key":"a","point":{"x":1}} junk`,
		`{"key":"a","point":{"x":1}}]`,
	} {
		if code := put(body); code != http.StatusBadRequest {
			t.Errorf("PUT %s answered %d, want 400", body, code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cache?key=a", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("a refused PUT stored its entry: GET answered %d", rec.Code)
	}
	if code := put("{\"key\":\"a\",\"point\":{\"x\":1}}\n \t"); code != http.StatusNoContent {
		t.Fatalf("PUT of one entry with trailing whitespace answered %d, want 204", code)
	}
}

// TestDispatcherLeaseExpiry pins the lost-worker path: an unfinished
// lease expires after its TTL, its tasks requeue, and a second lease
// (a healthy worker) completes the job. Completing the expired lease
// afterwards is a harmless no-op.
func TestDispatcherLeaseExpiry(t *testing.T) {
	d := newDispatcher(obs.NewRegistry(), 30*time.Millisecond)
	dj := d.submit(sweep.Job{Kind: sweep.Fig6}, []int{0, 1}, []string{"a", "b"})

	lost := d.take(8)
	if lost == nil || len(lost.Indices) != 2 {
		t.Fatalf("first lease = %+v", lost)
	}
	if l := d.take(8); l != nil {
		t.Fatalf("queue should be empty while leased, got %+v", l)
	}
	time.Sleep(40 * time.Millisecond)
	d.requeueExpired(time.Now())

	healthy := d.take(8)
	if healthy == nil || len(healthy.Indices) != 2 {
		t.Fatalf("post-expiry lease = %+v", healthy)
	}
	d.complete(healthy.ID, []int{0, 1})
	select {
	case <-dj.done:
	default:
		t.Fatal("job not done after healthy completion")
	}
	d.complete(lost.ID, []int{0, 1}) // expired ID: ignored
	if got := len(dj.doneIdx); got != 2 || dj.pending != 0 {
		t.Fatalf("job has %d done indices and %d pending, want 2 and 0", got, dj.pending)
	}
}

// TestLeaseWait pins how a lease request's waitMs becomes the poll's
// wait: the default for 0 or less, the cap for anything above it,
// including values whose conversion to nanoseconds would overflow.
func TestLeaseWait(t *testing.T) {
	for _, tc := range []struct {
		waitMs int
		want   time.Duration
	}{
		{0, defaultLeaseWait},
		{-5, defaultLeaseWait},
		{1500, 1500 * time.Millisecond},
		{120000, maxLeaseWait},
		{120001, maxLeaseWait},
		{math.MaxInt, maxLeaseWait},
	} {
		if got := leaseWait(tc.waitMs); got != tc.want {
			t.Errorf("leaseWait(%d) = %v, want %v", tc.waitMs, got, tc.want)
		}
	}
}

// TestSingleflight pins the flight group's basics: concurrent callers
// of one key share a single execution, and a completed flight is
// forgotten unless its fn asked to keep it (a later call runs again).
func TestSingleflight(t *testing.T) {
	var g flightGroup
	var runs, entered, sharedCount atomic.Int64
	release := make(chan struct{})
	const n = 5
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Add(1)
			v, err, src := g.do("k", false, func() (any, error) {
				runs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("do = %v, %v", v, err)
			}
			if src == flightJoined {
				sharedCount.Add(1)
			}
		}()
	}
	// Hold the leader until every caller is at (or in) do, so all five
	// overlap one execution.
	for entered.Load() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
	if sharedCount.Load() != n-1 {
		t.Fatalf("shared callers = %d, want %d", sharedCount.Load(), n-1)
	}

	// Not kept, so forgotten after completion: a fresh call runs fn again.
	g.do("k", false, func() (any, error) { runs.Add(1); return nil, nil })
	if runs.Load() != 2 {
		t.Fatal("completed flight was not forgotten")
	}

	// A failed flight is forgotten even when fn asks to keep it.
	g.do("e", true, func() (any, error) { runs.Add(1); return nil, fmt.Errorf("boom") })
	if _, err, src := g.do("e", true, func() (any, error) { runs.Add(1); return 1, nil }); err != nil || src != flightRan {
		t.Fatalf("call after a failed flight: err %v, source %d; want a fresh run", err, src)
	}
	if runs.Load() != 4 {
		t.Fatalf("fn ran %d times, want 4", runs.Load())
	}
}

// TestFlightGroupRemembersLRU pins the memory's bound and order: a kept
// flight is answered without running fn, a job touched in between
// survives memoJobs newer jobs, and the least recently used is evicted.
func TestFlightGroupRemembersLRU(t *testing.T) {
	var g flightGroup
	runs := map[string]int{}
	do := func(key string) flightSource {
		_, _, src := g.do(key, true, func() (any, error) { runs[key]++; return key, nil })
		return src
	}
	do("touched")
	for i := 0; i < memoJobs; i++ {
		if i == memoJobs/2 {
			if src := do("touched"); src != flightRemembered {
				t.Fatalf("repeat call: source %d, want remembered", src)
			}
		}
		do(fmt.Sprintf("new%d", i))
	}
	if src := do("touched"); src != flightRemembered {
		t.Fatalf("job touched in between: source %d after %d newer jobs, want remembered", src, memoJobs)
	}
	if src := do("new1"); src != flightRemembered {
		t.Fatalf("second oldest newer job: source %d, want remembered", src)
	}
	if src := do("new0"); src != flightRan {
		t.Fatalf("least recently used job: source %d, want evicted and run again", src)
	}
	if runs["touched"] != 1 || runs["new0"] != 2 || runs["new1"] != 1 {
		t.Fatalf("runs = touched %d, new0 %d, new1 %d; want 1, 2 and 1", runs["touched"], runs["new0"], runs["new1"])
	}
	if n := g.recent.Len(); n != memoJobs || len(g.m) != memoJobs {
		t.Fatalf("group holds %d remembered and %d mapped flights, want %d", n, len(g.m), memoJobs)
	}
}

// TestFlightGroupConcurrentMemory drives running, joining, remembering
// and evicting from several goroutines at once (run it under -race):
// every caller gets its own key's value, and the memory stays bounded.
func TestFlightGroupConcurrentMemory(t *testing.T) {
	var g flightGroup
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprint((i*7 + w) % (2 * memoJobs))
				v, err, _ := g.do(key, true, func() (any, error) { return key, nil })
				if err != nil || v.(string) != key {
					t.Errorf("do(%s) = %v, %v", key, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := g.recent.Len(); n != memoJobs || len(g.m) != memoJobs {
		t.Fatalf("group holds %d remembered and %d mapped flights, want %d", n, len(g.m), memoJobs)
	}
}

// countScenario is a cacheable single-point scenario that counts its
// runs; every point has a cache key, so a finished job is remembered.
type countScenario struct {
	runs atomic.Int64
}

func (s *countScenario) Name() string { return "fabrictest-count" }
func (s *countScenario) Normalize(job sweep.Job, topo noc.Topology) (sweep.Job, error) {
	return job, nil
}
func (s *countScenario) Reads() sweep.Field { return 0 }
func (s *countScenario) Curves(topo noc.Topology, job sweep.Job) ([]sweep.Curve, error) {
	return []sweep.Curve{{
		Name:      "count",
		NumPoints: 2,
		Sim:       true,
		Key:       func(_ string, pt int) string { return fmt.Sprintf("pt%d", pt) },
		Run: func(_ experiments.Policy, pt int) sweep.Point {
			s.runs.Add(1)
			return sweep.Point{X: pt, Throughput: 7}
		},
	}}, nil
}

var countSc = func() *countScenario {
	s := &countScenario{}
	sweep.MustRegister(s)
	return s
}()

// countingBackend counts the Gets that reach a backend.
type countingBackend struct {
	sweep.Backend
	gets atomic.Int64
}

func (b *countingBackend) Get(key string) (sweep.Point, bool) {
	b.gets.Add(1)
	return b.Backend.Get(key)
}

// TestServeRepeatFromMemory pins the memory's contract: a repeat GET of
// a finished job, in any format, is answered without a single backend
// Get, counts as a hit, and is timed under its outcome.
func TestServeRepeatFromMemory(t *testing.T) {
	reg := obs.NewRegistry()
	backend := &countingBackend{Backend: newDiskCache(t)}
	ts := httptest.NewServer(NewServer(backend, WithRegistry(reg), WithWorkers(2)).Handler())
	defer ts.Close()
	u := ts.URL + "/v1/kind/" + countSc.Name() + "?topo=small"

	resp, first := get(t, u, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first GET: %s\n%s", resp.Status, first)
	}
	etag := resp.Header.Get("ETag")
	gets := backend.gets.Load()
	if gets == 0 {
		t.Fatal("first GET read nothing from the backend")
	}
	resp, again := get(t, u, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(again, first) || resp.Header.Get("ETag") != etag {
		t.Fatalf("repeat GET: %s, ETag %q (want %q), same bytes %v",
			resp.Status, resp.Header.Get("ETag"), etag, bytes.Equal(again, first))
	}
	resp, csv := get(t, u+"&format=csv", nil)
	if resp.StatusCode != http.StatusOK || bytes.Equal(csv, first) {
		t.Fatalf("repeat GET as csv: %s, want a different rendering", resp.Status)
	}
	if n := backend.gets.Load() - gets; n != 0 {
		t.Fatalf("repeat GETs made %d backend Gets, want 0", n)
	}
	snap := reg.Snapshot()
	if snap.Counter("fabric.misses") != 1 || snap.Counter("fabric.hits") != 2 || memoHits(reg) != 2 {
		t.Fatalf("fabric.misses=%d hits=%d, fabric.latency.memo count %d; want 1/2/2", snap.Counter("fabric.misses"),
			snap.Counter("fabric.hits"), memoHits(reg))
	}
	resp, _ = get(t, u, http.Header{"If-None-Match": {etag}})
	if resp.StatusCode != http.StatusNotModified || resp.Header.Get("ETag") != etag {
		t.Fatalf("revalidation: %s, ETag %q", resp.Status, resp.Header.Get("ETag"))
	}
	if h := reg.Snapshot().Histograms["fabric.latency.not_modified"]; h.Count != 1 {
		t.Fatalf("fabric.latency.not_modified count = %d, want 1", h.Count)
	}
}

// ageFlights moves every remembered flight's finish time d into the
// past, as if d had gone by.
func ageFlights(g *flightGroup, d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for e := g.recent.Front(); e != nil; e = e.Next() {
		f := e.Value.(*flight)
		f.at = f.at.Add(-d)
	}
}

// TestServeComputeOnlyRemembers pins that a node without a backend
// remembers finished jobs too, and that a remembered job older than
// memoRefresh is computed again.
func TestServeComputeOnlyRemembers(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(nil, WithRegistry(reg))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	u := ts.URL + "/v1/kind/" + countSc.Name() + "?topo=small"
	getOK := func() {
		t.Helper()
		if resp, body := get(t, u, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET: %s\n%s", resp.Status, body)
		}
	}
	runs := countSc.runs.Load()
	for i := 0; i < 3; i++ {
		getOK()
	}
	if got := countSc.runs.Load() - runs; got != 2 || memoHits(reg) != 2 {
		t.Fatalf("three GETs of a two-point job ran %d points with %d answered from memory, want 2 and 2", got, memoHits(reg))
	}
	ageFlights(&srv.flights, memoRefresh)
	getOK()
	if got := countSc.runs.Load() - runs; got != 4 || memoHits(reg) != 2 {
		t.Fatalf("GET after memoRefresh: %d points run in all, %d answered from memory; want 4 and 2", got, memoHits(reg))
	}
}

// TestServeMemoryKeepsCacheRecency pins that serving a job from memory
// does not make its cache entries look cold: once its memory is
// memoRefresh old, the next request reads the entries again, which
// moves their mtimes, so `sweep -cache-gc` keeps them over entries
// written after the job.
func TestServeMemoryKeepsCacheRecency(t *testing.T) {
	dir := t.TempDir()
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cache, WithRegistry(obs.NewRegistry()))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	u := ts.URL + "/v1/kind/" + countSc.Name() + "?topo=small"
	getOK := func() {
		t.Helper()
		if resp, body := get(t, u, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET: %s\n%s", resp.Status, body)
		}
	}
	// entries lists the cache's entry files.
	entries := func() map[string]os.FileInfo {
		t.Helper()
		out := map[string]os.FileInfo{}
		files, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			info, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			out[f] = info
		}
		return out
	}
	age := func(paths map[string]os.FileInfo, d time.Duration) {
		t.Helper()
		old := time.Now().Add(-d)
		for p := range paths {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
		}
	}

	getOK() // computes the job's two points and stores them
	job := entries()
	var jobBytes int64
	for _, info := range job {
		jobBytes += info.Size()
	}
	if len(job) != 2 {
		t.Fatalf("the job stored %d entries, want 2", len(job))
	}
	age(job, 2*time.Hour)
	for _, k := range []string{"newer-a", "newer-b"} {
		if err := cache.Put(k, sweep.Point{X: 1}); err != nil {
			t.Fatal(err)
		}
	}
	newer := entries()
	for p := range job {
		delete(newer, p)
	}
	age(newer, time.Hour)

	getOK() // from memory: the entries stay two hours old
	for p := range job {
		if info, err := os.Stat(p); err != nil || time.Since(info.ModTime()) < time.Hour {
			t.Fatalf("a GET from memory touched %s (%v)", p, err)
		}
	}
	ageFlights(&srv.flights, memoRefresh)
	getOK() // the memory is too old: read the entries again

	st, err := cache.GC(jobBytes)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != len(newer) {
		t.Fatalf("GC evicted %d entries, want the %d written after the job", st.Evicted, len(newer))
	}
	for p := range job {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("GC evicted the job's entry %s, which the server read after the newer writes", p)
		}
	}
}

// failScenario fails to build its curves, so every request for it is a
// 500.
type failScenario struct {
	calls atomic.Int64
}

func (s *failScenario) Name() string { return "fabrictest-fail" }
func (s *failScenario) Normalize(job sweep.Job, topo noc.Topology) (sweep.Job, error) {
	return job, nil
}
func (s *failScenario) Reads() sweep.Field { return 0 }
func (s *failScenario) Curves(topo noc.Topology, job sweep.Job) ([]sweep.Curve, error) {
	s.calls.Add(1)
	return nil, fmt.Errorf("fabrictest: no curves")
}

var failSc = func() *failScenario {
	s := &failScenario{}
	sweep.MustRegister(s)
	return s
}()

// TestServeErrorCarriesNoETag pins that a failed job's 500 carries no
// ETag (a client must not be able to revalidate a result it was never
// served) and that the failure is not remembered.
func TestServeErrorCarriesNoETag(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewServer(newDiskCache(t), WithRegistry(reg)).Handler())
	defer ts.Close()
	u := ts.URL + "/v1/kind/" + failSc.Name() + "?topo=small"
	calls := failSc.calls.Load()
	for i := 0; i < 2; i++ {
		resp, body := get(t, u, nil)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("GET %d: %s, want 500\n%s", i, resp.Status, body)
		}
		if tag := resp.Header.Get("ETag"); tag != "" {
			t.Fatalf("GET %d: the 500 carries ETag %s", i, tag)
		}
	}
	if got := failSc.calls.Load() - calls; got != 2 {
		t.Fatalf("two GETs of a failing job built its curves %d times, want 2 (errors are not remembered)", got)
	}
	snap := reg.Snapshot()
	if snap.Counter("fabric.errors") != 2 || memoHits(reg) != 0 {
		t.Fatalf("fabric.errors=%d, fabric.latency.memo count %d; want 2/0",
			snap.Counter("fabric.errors"), memoHits(reg))
	}
}

// TestJobFromQueryValidation pins the HTTP surface's 400 paths.
func TestJobFromQueryValidation(t *testing.T) {
	srv := NewServer(nil, WithRegistry(obs.NewRegistry()))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		url  string
		want string
	}{
		{"/v1/kind/nosuchkind", "unknown kind"},
		{"/v1/kind/fig6?warmup=abc", "bad warmup"},
		{"/v1/kind/fig6?format=xml", "bad format"},
		{"/v1/kind/fig6?grid=bogus", "bad grid clause"},
		{"/v1/kind/fig3?bins=0", "bad bin count"},
		// A paper kind refuses a field it would ignore, as the CLI does,
		// instead of simulating every point again under new keys.
		{"/v1/kind/fig3?params=x%3D1", "fig3 takes no params"},
		{"/v1/kind/fig6?bins=4", "fig6 takes no bins"},
		{"/v1/kind/table2?matn=64", "table2 takes no matn"},
		{"/v1/kind/fig5?cores=64", "fig5 takes no cores"},
		{"/v1/kind/barrier?matn=64", "barrier takes no matn"},
		{"/v1/kind/table1?warmup=5", "table1 takes no warmup/measure"},
		// An unknown or misspelt key is refused, not dropped.
		{"/v1/kind/fig3?policy=lrsc", `unknown query key "policy" (known: topo, bins, warmup, measure, matn, cores, grid, params, format)`},
		{"/v1/kind/fig3?matN=64", `unknown query key "matN"`},
		{"/v1/kind/fig3?bins=1&bins=4", `repeated query key "bins"`},
		// A job whose policies run none of its curves is refused whole.
		{"/v1/kind/run?params=kernel%3Dqueue&grid=policy%3Dplain",
			"run: not run: queue [policy=plain] needs LR/SC or LRwait/SCwait, which plain does not serve"},
	} {
		resp, body := get(t, ts.URL+tc.url, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", tc.url, resp.Status)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %q missing %q", tc.url, body, tc.want)
		}
	}
}

// TestServeFig5LayoutBeyondMemory checks that a negative Fig. 5 matrix
// size, or a matrix or bin count the topology's memory cannot hold, is
// refused with a 400 before anything runs, so no pool goroutine panics
// and the server keeps serving.
func TestServeFig5LayoutBeyondMemory(t *testing.T) {
	srv := NewServer(nil, WithRegistry(obs.NewRegistry()))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, tc := range []struct{ query, want string }{
		{"topo=small&matn=-1", "bad matn -1"},
		{"topo=mempool&matn=-1", "bad matn -1"},
		{"topo=small&matn=100000", "do not fit small's memory"},
		{"topo=small&bins=1000000", "do not fit small's memory"},
	} {
		resp, body := get(t, ts.URL+"/v1/kind/fig5?"+tc.query, nil)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("fig5?%s: %s %q, want 400 with %q", tc.query, resp.Status, body, tc.want)
		}
	}
	if resp, body := get(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the refusals: %s %q", resp.Status, body)
	}
	if resp, body := get(t, ts.URL+"/v1/kind/fig5?topo=small&bins=1&matn=16&warmup=30&measure=60", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("fig5 after the refusals: %s %q", resp.Status, body)
	}
}

// tableScenario is a single-point scenario with its own table layout
// that counts how often a result is laid out as a table. Its nan twin
// measures a NaN throughput, which the JSON emitter refuses.
type tableScenario struct {
	name   string
	nan    bool
	tables atomic.Int64
}

func (s *tableScenario) Name() string { return s.name }
func (s *tableScenario) Normalize(job sweep.Job, topo noc.Topology) (sweep.Job, error) {
	return job, nil
}
func (s *tableScenario) Reads() sweep.Field { return 0 }
func (s *tableScenario) Curves(topo noc.Topology, job sweep.Job) ([]sweep.Curve, error) {
	return []sweep.Curve{{
		Name:      "table",
		NumPoints: 2,
		Run: func(_ experiments.Policy, pt int) sweep.Point {
			if s.nan {
				return sweep.Point{X: pt, Throughput: math.NaN()}
			}
			return sweep.Point{X: pt, Throughput: 0.5 + float64(pt)}
		},
	}}, nil
}
func (s *tableScenario) Table(r *sweep.Result) *stats.Table {
	s.tables.Add(1)
	tbl := stats.NewTable(s.name, "x", "throughput, per cycle")
	for _, p := range r.Series[0].Points {
		tbl.Addf(p.X, p.Throughput)
	}
	return tbl
}

var tableSc, nanSc = func() (*tableScenario, *tableScenario) {
	t, n := &tableScenario{name: "fabrictest-table"}, &tableScenario{name: "fabrictest-nan", nan: true}
	sweep.MustRegister(t)
	sweep.MustRegister(n)
	return t, n
}()

// TestServeRendersOncePerFormat pins that a job is rendered when its
// flight finishes, not per request: repeat GETs of a remembered job in
// every format write the same bytes without laying the result out
// again. A JSON render error stays a 500 without an ETag for json
// requests only; the job's CSV and table are still served.
func TestServeRendersOncePerFormat(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewServer(newDiskCache(t), WithRegistry(reg)).Handler())
	defer ts.Close()
	u := ts.URL + "/v1/kind/" + tableSc.Name() + "?topo=small"
	tables := tableSc.tables.Load()
	formats := []string{"json"}
	for i := 0; i < 5; i++ {
		formats = append(formats, "csv", "table")
	}
	first := map[string][]byte{}
	for _, format := range formats {
		resp, body := get(t, u+"&format="+format, nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
			t.Fatalf("%s GET: %s, ETag %q\n%s", format, resp.Status, resp.Header.Get("ETag"), body)
		}
		if want, ok := first[format]; !ok {
			first[format] = body
		} else if !bytes.Equal(body, want) {
			t.Fatalf("repeat %s GET served\n%s\nwant\n%s", format, body, want)
		}
	}
	if got := tableSc.tables.Load() - tables; got > 2 {
		t.Fatalf("one job served five times as CSV and five as a table laid out %d tables, want at most 2", got)
	}
	if memoHits(reg) != 10 {
		t.Fatalf("fabric.latency.memo count = %d, want 10", memoHits(reg))
	}

	u = ts.URL + "/v1/kind/" + nanSc.Name() + "?topo=small"
	for i, format := range []string{"json", "csv", "table", "json"} {
		resp, body := get(t, u+"&format="+format, nil)
		want, tagged := http.StatusOK, true
		if format == "json" {
			want, tagged = http.StatusInternalServerError, false
		}
		if resp.StatusCode != want || (resp.Header.Get("ETag") != "") != tagged {
			t.Fatalf("GET %d (%s) of a NaN result: %s, ETag %q; want %d with ETag %v\n%s",
				i, format, resp.Status, resp.Header.Get("ETag"), want, tagged, body)
		}
	}
	if got := reg.Snapshot().Counter("fabric.errors"); got != 2 {
		t.Fatalf("fabric.errors = %d after two json GETs of a NaN result, want 2", got)
	}
}

// TestRemoteGarbagePeer pins the client's posture toward a peer that
// answers 200 with a body that is not the entry asked for: bytes that
// are not JSON, truncated JSON, or a well-formed entry under another
// key. Each Get is a miss, never a wrong point; the malformed bodies
// are retried like any transient fault and count as degradation, and
// the wrong key is a definitive answer. A tiered backend over such a
// peer serves the same bytes as a disk-only run.
func TestRemoteGarbagePeer(t *testing.T) {
	bodies := []string{
		"<html>not json</html>",
		`{"key":"k","point":{"x":5,"throughput":0.`,
		`{"key":"other","point":{"x":5,"throughput":0.75}}`,
	}
	var mode, gets atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cache", func(w http.ResponseWriter, r *http.Request) {
		n := gets.Add(1)
		m := mode.Load()
		if m < 0 { // cycle through every kind of garbage
			m = n % int64(len(bodies))
		}
		io.WriteString(w, bodies[m])
	})
	mux.HandleFunc("PUT /v1/cache", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	peer := httptest.NewServer(mux)
	defer peer.Close()

	reg := obs.NewRegistry()
	rem := NewRemote(peer.URL, RemoteRetries(2, time.Millisecond)).ScopedBackend(reg).(*Remote)
	for i, tc := range []struct {
		attempts int64
		degraded uint64
	}{{2, 1}, {2, 2}, {1, 3}} {
		mode.Store(int64(i))
		gets.Store(0)
		if p, ok := rem.Get("k"); ok || !reflect.DeepEqual(p, sweep.Point{}) {
			t.Fatalf("body %q: Get = %+v, %v; want a miss", bodies[i], p, ok)
		}
		if got := gets.Load(); got != tc.attempts {
			t.Fatalf("body %q: %d attempts, want %d", bodies[i], got, tc.attempts)
		}
		if got := reg.Snapshot().Counter("fabric.degraded"); got != tc.degraded {
			t.Fatalf("body %q: fabric.degraded = %d, want %d", bodies[i], got, tc.degraded)
		}
	}

	mode.Store(-1)
	kind := sweep.TableII
	q := testQuery(kind).Encode()
	tiered := NewTiered(newDiskCache(t), NewRemote(peer.URL, RemoteRetries(1, time.Millisecond)))
	ts := httptest.NewServer(NewServer(tiered, WithRegistry(obs.NewRegistry()), WithWorkers(2)).Handler())
	defer ts.Close()
	diskOnly := httptest.NewServer(NewServer(newDiskCache(t), WithRegistry(obs.NewRegistry()), WithWorkers(2)).Handler())
	defer diskOnly.Close()
	for _, format := range []string{"json", "csv", "table"} {
		path := "/v1/kind/" + string(kind) + "?" + q + "&format=" + format
		resp, got := get(t, ts.URL+path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tiered %s GET: %s\n%s", format, resp.Status, got)
		}
		if _, want := get(t, diskOnly.URL+path, nil); !bytes.Equal(got, want) {
			t.Fatalf("tiered over a garbage peer served %s\n%s\nwant the disk-only\n%s", format, got, want)
		}
	}
	if gets.Load() == 0 {
		t.Fatal("the tiered sweep never asked the peer")
	}
}
