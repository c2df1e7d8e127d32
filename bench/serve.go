package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sweep"

	_ "repro/internal/patterns" // registers barrier, rcu and comblock
)

// The served traffic mix (closed loop, one client on one keep-alive
// connection). Every block of 100 requests holds exactly 89 hits,
// 10 revalidations and 1 miss in seeded order, so any stretch of the
// run carries the same mix. A miss asks fig3 for a window no earlier
// request used, so the server simulates six points and stores them.
//
// One client, because on a host with few CPUs two clients and their
// handlers outnumber the CPUs, and the rate then follows the host's
// scheduler: on the 2-CPU host the benchmark was built on, ten runs with
// two clients spread 0.27 in work_rate, against 0.03 to 0.07 with one.
//
// The timed step is cut into rounds of whole blocks, so every round
// carries the same work: a round of time would hold a varying number of
// misses, which take most of the CPU, and its rate would vary with them.
const (
	serveBlock       = 100
	serveBlockHits   = 89
	serveBlockReval  = 10
	serveRoundBlocks = 8       // blocks per round: about 0.5 s on a 2-CPU host
	serveRequests    = 200_000 // cap on one run's requests; the clock ends runs first
	serveWarmup      = 2_000   // requests at the head of the run that are not recorded, whole blocks
	missMeasureMin   = 1000    // misses draw unique measure windows from [1000, 4000)
	missMeasureSpan  = 3000
)

// request kinds
const (
	reqHit = iota
	reqReval
	reqMiss
)

var reqNames = [...]string{"hit", "revalidate", "miss"}

type serveRequest struct {
	kind int
	ref  int // index into the references, for hits and revalidations
	path string
}

// reference is one (kind, format) response captured at set-up.
type serveRef struct {
	path string
	body []byte
	etag string
}

// serveState is one set-up: a warm cache and a running server.
type serveState struct {
	dir  string
	ts   *httptest.Server
	reg  *obs.Registry
	tb   *timedBackend
	refs []serveRef
}

func (s *serveState) close() {
	s.ts.Close()
	os.RemoveAll(s.dir)
}

// serveSetup warms a fresh cache with every registered kind at the
// small topology, starts the server on it, and captures each kind in
// each format, checking the served bytes against the result's own
// emitters.
func serveSetup(env *runEnv) (*serveState, error) {
	dir, err := os.MkdirTemp("", "bench-serve-")
	if err != nil {
		return nil, err
	}
	st := &serveState{dir: dir, reg: obs.NewRegistry()}
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var backend sweep.Backend = cache
	st.tb = newTimedBackend(cache, env.tr)
	if env.tr != nil {
		backend = st.tb
	}
	var jobs []sweep.Job
	for _, k := range sweep.Names() {
		jobs = append(jobs, sweep.Job{Kind: sweep.Kind(k), Topo: "small"})
	}
	results, _, err := (&sweep.Runner{Workers: 2, Cache: backend}).RunAll(jobs)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := fabric.NewServer(backend, fabric.WithWorkers(2), fabric.WithRegistry(st.reg))
	st.ts = httptest.NewServer(srv.Handler())
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, res := range results {
		js, err := res.JSON()
		if err != nil {
			st.close()
			return nil, err
		}
		for _, f := range []struct {
			name string
			want []byte
		}{{"json", js}, {"csv", []byte(res.CSV())}, {"table", []byte(res.Table().String())}} {
			ref := serveRef{path: fmt.Sprintf("/v1/kind/%s?topo=small&format=%s", res.Job.Kind, f.name)}
			resp, err := client.Get(st.ts.URL + ref.path)
			if err == nil {
				ref.body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				ref.etag = resp.Header.Get("ETag")
			}
			switch {
			case err != nil:
				err = fmt.Errorf("bench: %s: %w", ref.path, err)
			case resp.StatusCode != http.StatusOK || ref.etag == "":
				err = fmt.Errorf("bench: %s: status %d, ETag %q", ref.path, resp.StatusCode, ref.etag)
			case !bytes.Equal(ref.body, f.want):
				err = fmt.Errorf("bench: %s: served bytes differ from Result.%s", ref.path, f.name)
			}
			if err != nil {
				st.close()
				return nil, err
			}
			st.refs = append(st.refs, ref)
		}
	}
	return st, nil
}

// serveRequestList draws the run's request sequence from the seed.
func serveRequestList(env *runEnv, nRefs int) []serveRequest {
	rng := env.rng()
	n := serveRequests
	if env.mini {
		n = env.warmup() + minSlices*env.roundRequests()
	}
	measures := rng.Perm(missMeasureSpan)
	block := make([]int, serveBlock)
	for i := range block {
		switch {
		case i < serveBlockHits:
			block[i] = reqHit
		case i < serveBlockHits+serveBlockReval:
			block[i] = reqReval
		default:
			block[i] = reqMiss
		}
	}
	reqs := make([]serveRequest, 0, n)
	for len(reqs) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			if kind == reqMiss && len(measures) > 0 {
				reqs = append(reqs, serveRequest{kind: reqMiss, path: fmt.Sprintf(
					"/v1/kind/fig3?topo=small&bins=%d&warmup=500&measure=%d&format=json",
					1+rng.IntN(64), missMeasureMin+measures[0])})
				measures = measures[1:]
				continue
			}
			if kind == reqMiss {
				kind = reqHit
			}
			reqs = append(reqs, serveRequest{kind: kind, ref: rng.IntN(nRefs)})
		}
	}
	return reqs
}

// do sends one request and reports whether the response was right.
func (st *serveState) do(c *http.Client, rq serveRequest) error {
	path := rq.path
	if rq.kind != reqMiss {
		path = st.refs[rq.ref].path
	}
	req, err := http.NewRequest(http.MethodGet, st.ts.URL+path, nil)
	if err != nil {
		return err
	}
	if rq.kind == reqReval {
		req.Header.Set("If-None-Match", st.refs[rq.ref].etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	switch rq.kind {
	case reqHit:
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, st.refs[rq.ref].body) {
			return fmt.Errorf("hit %s: status %d, %d bytes differ from the reference", path, resp.StatusCode, len(body))
		}
	case reqReval:
		if resp.StatusCode != http.StatusNotModified {
			return fmt.Errorf("revalidation %s: status %d, want 304", path, resp.StatusCode)
		}
	case reqMiss:
		var res struct{ Series []json.RawMessage }
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &res) != nil || len(res.Series) != 6 {
			return fmt.Errorf("miss %s: status %d, want JSON with 6 series", path, resp.StatusCode)
		}
	}
	return nil
}

// serveSetups is how many times a run sets up.
const serveSetups = 3

// serveThreads is how many CPUs the served loop keeps busy, and so how
// many the host clock's calibration runs on, at set-up too. The one
// client waits for each reply, so client and server take turns on one
// CPU; only a miss's six points spread over the server's two workers.
const serveThreads = 1

// serveSample is one completed request.
type serveSample struct {
	idx, kind, round int
	lat              time.Duration
	err              error
}

func runServeMixed(env *runEnv, r *result) error {
	var st *serveState
	var setups []float64
	for i := 0; i < env.setups(serveSetups); i++ {
		// Each set-up starts from a collected heap, so the previous
		// set-up and its garbage neither inflate peak memory nor land a
		// collection inside the next timing.
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		slow := env.clock.slowness(serveThreads)
		id := env.tr.begin("setup", 0, 0)
		t := time.Now()
		var err error
		if st, err = serveSetup(env); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds()/slow)
		env.tr.end(id)
	}
	defer st.close()
	r.set("setup_s", median(setups))
	reqs := serveRequestList(env, len(st.refs))
	warmup := env.warmup()

	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	var samples []serveSample
	next := 0
	// send sends the requests up to end, each after the previous reply.
	send := func(round, end int) {
		for ; next < end; next++ {
			rq := reqs[next]
			sp := env.tr.begin("GET "+reqNames[rq.kind], 0, next+1)
			t := time.Now()
			err := st.do(client, rq)
			lat := time.Since(t)
			env.tr.end(sp)
			samples = append(samples, serveSample{idx: next, kind: rq.kind, round: round, lat: lat, err: err})
		}
	}

	send(-1, warmup)
	fab0 := st.reg.Snapshot()
	gets0, getT0 := st.tb.gets.hits.Load(), st.tb.gets.hitT.Load()
	var roundDur, roundCPU []time.Duration
	var roundSlow []float64
	end, t0 := warmup, time.Now()
	for k := 0; k < minSlices || time.Since(t0) < env.budget(); k++ {
		if end += env.roundRequests(); end > len(reqs) {
			break
		}
		roundSlow = append(roundSlow, env.clock.slowness(serveThreads))
		cpu0, t := cpuTime(), time.Now()
		send(k, end)
		roundDur = append(roundDur, time.Since(t))
		roundCPU = append(roundCPU, cpuTime()-cpu0)
	}
	rounds := len(roundDur)
	fab := obs.Diff(fab0, st.reg.Snapshot())

	var revals, misses []float64
	var hitTotal time.Duration
	hits := make([][]float64, rounds)
	served := make([]int, rounds)
	for _, s := range samples {
		r.op(s.err == nil, "request %d: %v", s.idx, s.err)
		if s.round < 0 {
			continue
		}
		served[s.round]++
		lat := float64(s.lat) / 1e6
		switch s.kind {
		case reqHit:
			hits[s.round] = append(hits[s.round], lat)
			hitTotal += s.lat
		case reqReval:
			revals = append(revals, lat)
		case reqMiss:
			misses = append(misses, lat)
		}
	}
	var step stepStats
	var allHits []float64
	for k := range hits {
		step.add(hits[k], float64(served[k]), float64(served[k]), roundDur[k], roundCPU[k], roundSlow[k])
		allHits = append(allHits, hits[k]...)
	}
	step.report(r)
	if env.tr == nil {
		return nil
	}

	for _, name := range []string{"requests", "hits", "misses", "not_modified", "coalesced", "errors"} {
		r.set("fabric."+name, float64(fab.Counter("fabric."+name)))
	}
	r.set("fabric.revalidate_p50_ms", quantile(revals, 0.5))
	r.set("fabric.hit_p99_ms", quantile(allHits, 0.99))
	r.set("fabric.hit_p999_ms", quantile(allHits, 0.999))
	r.set("fabric.miss_p50_ms", quantile(misses, 0.5))
	r.set("fabric.gets_per_hit", ratio(float64(st.tb.gets.hits.Load()-gets0), float64(fab.Counter("fabric.hits"))))
	r.set("fabric.cache_share", ratio(float64(st.tb.gets.hitT.Load()-getT0), float64(hitTotal)))
	gets, puts := st.tb.gets.latenciesUs(), st.tb.puts.latenciesUs()
	r.set("sweep.cache.get_us.p50", quantile(gets, 0.5))
	r.set("sweep.cache.get_us.p99", quantile(gets, 0.99))
	r.set("sweep.cache.hit_ratio", ratio(float64(st.tb.gets.hits.Load()), float64(len(gets))))
	r.set("sweep.cache.put_us.p50", quantile(puts, 0.5))
	r.set("sweep.cache.put_us.p99", quantile(puts, 0.99))
	return nil
}
