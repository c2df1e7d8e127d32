package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/sweep/work"
)

// Server is the sweep service node: it answers figure/table requests
// over HTTP from its backend (computing on miss, once per distinct job
// however many clients ask concurrently), exposes the backend to remote
// peers, and coordinates worker machines.
type Server struct {
	backend sweep.Backend
	workers int // local compute pool width; <= 0 selects GOMAXPROCS
	reg     *obs.Registry
	logf    func(format string, args ...any)

	// dispatchTimeout bounds how long a request waits on worker
	// machines before computing the remainder itself.
	dispatchTimeout time.Duration

	flights flightGroup
	disp    *dispatcher
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithWorkers sets the local compute pool width.
func WithWorkers(n int) ServerOption { return func(s *Server) { s.workers = n } }

// WithRegistry scopes the server's fabric.* and sweep.* counters.
func WithRegistry(reg *obs.Registry) ServerOption { return func(s *Server) { s.reg = reg } }

// WithLog sets the server's logger (Printf-shaped). Default: silent.
func WithLog(f func(format string, args ...any)) ServerOption { return func(s *Server) { s.logf = f } }

// NewServer builds a service node over backend (nil serves compute-only,
// with no cross-request memoization beyond singleflight).
func NewServer(backend sweep.Backend, opts ...ServerOption) *Server {
	s := &Server{backend: backend, dispatchTimeout: 30 * time.Minute}
	for _, o := range opts {
		o(s)
	}
	if s.disp == nil {
		s.disp = newDispatcher(nil, 0)
	}
	s.disp.reg = s.obs()
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	return s
}

func (s *Server) obs() *obs.Registry {
	if s.reg != nil {
		return s.reg
	}
	return obs.Default()
}

// Handler returns the node's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricz", s.handleMetricz)
	mux.HandleFunc("GET /v1/kinds", s.handleKinds)
	mux.HandleFunc("GET /v1/kind/{name}", s.handleKind)
	mux.HandleFunc("GET /v1/cache", s.handleCacheGet)
	mux.HandleFunc("PUT /v1/cache", s.handleCachePut)
	mux.HandleFunc("POST /v1/work/lease", s.handleLease)
	mux.HandleFunc("POST /v1/work/complete", s.handleComplete)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.obs().Snapshot())
}

func (s *Server) handleKinds(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sweep.Names())
}

// jobFromQuery maps GET /v1/kind/{name} query parameters onto a Job:
// topo, bins, warmup, measure, matn, cores, grid (the -grid flag
// syntax), params (the -params flag syntax) and format (json|csv|table,
// default json). Validation beyond syntax is Normalize's job.
func jobFromQuery(r *http.Request) (sweep.Job, string, error) {
	q := r.URL.Query()
	j := sweep.Job{Kind: sweep.Kind(r.PathValue("name")), Topo: q.Get("topo")}
	var err error
	if j.Bins, err = sweep.ParseBins(q.Get("bins")); err != nil {
		return j, "", err
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{{"warmup", &j.Warmup}, {"measure", &j.Measure}, {"matn", &j.MatN}, {"cores", &j.Cores}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return j, "", fmt.Errorf("bad %s %q", p.name, v)
			}
			*p.dst = n
		}
	}
	grid, err := sweep.ParseGrid(q.Get("grid"))
	if err != nil {
		return j, "", err
	}
	if !grid.IsZero() {
		grid.Apply(&j)
	}
	if j.Params, err = sweep.ParseParams(q.Get("params")); err != nil {
		return j, "", err
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	switch format {
	case "json", "csv", "table":
	default:
		return j, "", fmt.Errorf("bad format %q (want json, csv or table)", format)
	}
	return j, format, nil
}

// jobIdentity hashes a normalized job together with the binary
// fingerprint — the same inputs the point cache keys on, lifted to whole
// jobs. Empty when the binary has no fingerprint (identity across
// processes is then unknowable, so no ETag is issued).
func jobIdentity(norm sweep.Job) string {
	fp := sweep.Fingerprint()
	if fp == "" {
		return ""
	}
	spec, err := json.Marshal(norm)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256([]byte(fp + "|" + string(spec)))
	return hex.EncodeToString(sum[:])
}

// etagMatches implements If-None-Match: a comma-separated list of
// entity tags, or "*". Weak-validator prefixes are accepted — byte
// identity is exactly what the job-identity ETag asserts.
func etagMatches(header, etag string) bool {
	for _, tok := range strings.Split(header, ",") {
		tok = strings.TrimSpace(tok)
		tok = strings.TrimPrefix(tok, "W/")
		if tok == "*" || tok == etag {
			return true
		}
	}
	return false
}

// flightOutcome is what one singleflight execution hands every caller.
type flightOutcome struct {
	res      *sweep.Result
	executed int // points not served by the backend
}

func (s *Server) handleKind(w http.ResponseWriter, r *http.Request) {
	reg := s.obs()
	reg.Counter("fabric.requests").Inc()
	job, format, err := jobFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	norm, err := job.Normalize()
	if err != nil {
		http.Error(w, strings.TrimPrefix(err.Error(), "sweep: "), http.StatusBadRequest)
		return
	}
	id := jobIdentity(norm)
	if id != "" {
		// The ETag derives from the same identity the cache keys on:
		// binary fingerprint + normalized job, suffixed per format since
		// each format serves different bytes.
		etag := `"` + id[:32] + "-" + format + `"`
		w.Header().Set("ETag", etag)
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
			reg.Counter("fabric.not_modified").Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}

	// Coalesce identical concurrent jobs regardless of requested format
	// — compute once, render per caller. The flight key falls back to
	// the normalized spec when no fingerprint-based identity exists
	// (coalescing is in-process, it needs no cross-binary identity).
	flightKey := id
	if flightKey == "" {
		spec, _ := json.Marshal(norm)
		flightKey = string(spec)
	}
	v, err, shared := s.flights.do(flightKey, func() (any, error) {
		return s.compute(norm, flightKey)
	})
	if shared {
		reg.Counter("fabric.coalesced").Inc()
	}
	if err != nil {
		reg.Counter("fabric.errors").Inc()
		s.logf("fabric: %s: %v", norm.Kind, err)
		http.Error(w, strings.TrimPrefix(err.Error(), "sweep: "), http.StatusInternalServerError)
		return
	}
	out := v.(*flightOutcome)
	if !shared {
		if out.executed == 0 {
			reg.Counter("fabric.hits").Inc()
		} else {
			reg.Counter("fabric.misses").Inc()
		}
	}
	if err := writeResult(w, out.res, format); err != nil {
		reg.Counter("fabric.errors").Inc()
		s.logf("fabric: render %s: %v", norm.Kind, err)
	}
}

// writeResult renders a result in the requested format, byte-identical
// to the CLI emitters (same JSON/CSV/Table methods).
func writeResult(w http.ResponseWriter, res *sweep.Result, format string) error {
	switch format {
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		_, err := io.WriteString(w, res.CSV())
		return err
	case "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, err := io.WriteString(w, res.Table().String())
		return err
	default:
		b, err := res.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return err
		}
		w.Header().Set("Content-Type", "application/json")
		_, err = w.Write(b)
		return err
	}
}

// compute produces a job's result, preferring worker machines when any
// are attached and falling back to the in-process pool.
func (s *Server) compute(norm sweep.Job, id string) (*flightOutcome, error) {
	if s.backend != nil && s.disp.workersPresent() {
		return s.dispatchCompute(norm, id)
	}
	runner := sweep.Runner{Workers: s.workers, Cache: s.backend, Obs: s.reg}
	res, st, err := runner.Run(norm)
	if err != nil {
		return nil, err
	}
	return &flightOutcome{res: res, executed: st.Executed}, nil
}

// dispatchCompute shards a job across attached workers: expand, serve
// what the backend already has, lease the remainder out, and compute
// locally whatever comes back unfinished (worker loss, uncacheable
// items). Assembly is by item index, so the distributed result is
// byte-identical to a local run.
func (s *Server) dispatchCompute(norm sweep.Job, id string) (*flightOutcome, error) {
	reg := s.obs()
	e, err := sweep.ExpandJob(norm)
	if err != nil {
		return nil, err
	}
	points := make([]sweep.Point, len(e.Items))
	have := make([]bool, len(e.Items))
	var indices []int
	var keys []string
	for i, it := range e.Items {
		if it.Key == "" {
			continue // uncacheable: cannot travel through the backend
		}
		if p, ok := s.backend.Get(it.Key); ok {
			points[i], have[i] = p, true
			continue
		}
		indices = append(indices, i)
		keys = append(keys, it.Key)
	}
	executed := 0 // points the initial backend pass could not serve
	for i := range e.Items {
		if !have[i] {
			executed++
		}
	}

	dj := s.disp.submit(id, e.Job, indices, keys)
	if len(indices) > 0 {
		deadline := time.Now().Add(s.dispatchTimeout)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
	wait:
		for {
			select {
			case <-dj.done:
				break wait
			case now := <-tick.C:
				s.disp.requeueExpired(now)
				if !s.disp.workersPresent() || now.After(deadline) {
					// Workers left (or the job stalled): withdraw what
					// nobody leased and finish it ourselves.
					s.disp.abandon(dj)
					break wait
				}
			}
		}
		// Harvest worker results from the shared backend.
		for _, i := range indices {
			if p, ok := s.backend.Get(e.Items[i].Key); ok {
				points[i], have[i] = p, true
			}
		}
	}

	// Whatever remains — uncacheable items, lost leases, backend
	// hiccups — computes in the local pool.
	var local []int
	for i := range e.Items {
		if !have[i] {
			local = append(local, i)
		}
	}
	if len(local) > 0 {
		reg.Counter("fabric.dispatch.local").Add(uint64(len(local)))
		sims := 0
		pool := work.Pool{Workers: s.workers}
		pool.MapWorkers(len(local), func(_, li int) {
			i := local[li]
			p := e.Items[i].Compute()
			points[i] = p
			if key := e.Items[i].Key; key != "" && s.backend != nil {
				_ = s.backend.Put(key, p)
			}
		})
		for _, i := range local {
			if e.Items[i].Sim {
				sims++
			}
		}
		reg.Counter("sweep.points.executed").Add(uint64(sims))
	}
	res, err := e.Assemble(points)
	if err != nil {
		return nil, err
	}
	return &flightOutcome{res: res, executed: executed}, nil
}

func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if s.backend == nil {
		http.Error(w, "no backend", http.StatusServiceUnavailable)
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	p, ok := s.backend.Get(key)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(CacheEntry{Key: key, Point: p})
}

func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	if s.backend == nil {
		http.Error(w, "no backend", http.StatusServiceUnavailable)
		return
	}
	var e CacheEntry
	if err := json.NewDecoder(io.LimitReader(r.Body, maxEntryBytes)).Decode(&e); err != nil {
		http.Error(w, "bad cache entry: "+err.Error(), http.StatusBadRequest)
		return
	}
	if e.Key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	if err := s.backend.Put(e.Key, e.Point); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad lease request: "+err.Error(), http.StatusBadRequest)
		return
	}
	l := s.disp.lease(r.Context(), req.Max, time.Duration(req.WaitMs)*time.Millisecond)
	if l == nil {
		w.WriteHeader(http.StatusNoContent) // no work inside the wait
		return
	}
	s.logf("fabric: leased %d points of %s to %s", len(l.Indices), l.Job.Kind, req.Worker)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(l)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad complete request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.LeaseID == "" {
		http.Error(w, "missing leaseId", http.StatusBadRequest)
		return
	}
	s.disp.complete(req.LeaseID, req.Done)
	w.WriteHeader(http.StatusNoContent)
}
