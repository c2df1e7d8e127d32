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
)

// Server is the sweep service node: it answers figure/table requests
// over HTTP from its backend (computing on miss, once per distinct job
// however many clients ask concurrently, and answering repeats of
// recently finished jobs from memory), exposes the backend to remote
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

// NewServer builds a service node over backend (nil serves
// compute-only). The node remembers the results of the 64 most recently
// used jobs and answers repeat requests for them without touching the
// backend; a job goes back through the backend once it has been
// remembered for five minutes (memoRefresh).
func NewServer(backend sweep.Backend, opts ...ServerOption) *Server {
	s := &Server{backend: backend, dispatchTimeout: 30 * time.Minute}
	for _, o := range opts {
		o(s)
	}
	// Scope the backend once, the way the Runner does, so the cache
	// surface and dispatch probes report into the server's registry too.
	if rs, ok := backend.(sweep.RegistryScoped); ok {
		s.backend = rs.ScopedBackend(s.obs())
	}
	s.disp = newDispatcher(s.obs(), 0)
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
	executed int // leased plus locally simulated points; 0 is a hit
}

func (s *Server) handleKind(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
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
	etag := ""
	if id != "" {
		// The ETag derives from the same identity the cache keys on:
		// binary fingerprint + normalized job, suffixed per format since
		// each format serves different bytes. It is sent only with a 200
		// or a 304, never with an error.
		etag = `"` + id[:32] + "-" + format + `"`
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
			reg.Counter("fabric.not_modified").Inc()
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			reg.Histogram("fabric.latency.not_modified").Observe(time.Since(start))
			return
		}
	}

	// Coalesce identical concurrent jobs regardless of requested format
	// — compute once, render per caller — and answer repeats of a
	// finished job from the flight group's memory. The flight key falls
	// back to the normalized spec when no fingerprint-based identity
	// exists (coalescing is in-process, it needs no cross-binary
	// identity), but such a job is never remembered. The memory holds
	// results, not rendered bytes: one copy per job, not one per format.
	flightKey := id
	if flightKey == "" {
		spec, _ := json.Marshal(norm)
		flightKey = string(spec)
	}
	v, err, src := s.flights.do(flightKey, id != "", func() (any, error) {
		return s.compute(norm)
	})
	if src == flightJoined {
		reg.Counter("fabric.coalesced").Inc()
	}
	if err != nil {
		reg.Counter("fabric.errors").Inc()
		s.logf("fabric: %s: %v", norm.Kind, err)
		http.Error(w, strings.TrimPrefix(err.Error(), "sweep: "), http.StatusInternalServerError)
		return
	}
	// A joiner's latency is recorded under its flight's outcome; only
	// the flight's runner counts it as a hit or a miss.
	out := v.(*flightOutcome)
	latency := "fabric.latency.hit"
	switch {
	case src == flightRemembered:
		latency = "fabric.latency.memo"
		reg.Counter("fabric.hits").Inc()
	case out.executed > 0:
		latency = "fabric.latency.miss"
		if src == flightRan {
			reg.Counter("fabric.misses").Inc()
		}
	case src == flightRan:
		reg.Counter("fabric.hits").Inc()
	}
	if err := writeResult(w, out.res, format, etag); err != nil {
		reg.Counter("fabric.errors").Inc()
		s.logf("fabric: render %s: %v", norm.Kind, err)
		return
	}
	reg.Histogram(latency).Observe(time.Since(start))
}

// writeResult renders a result in the requested format, byte-identical
// to the CLI emitters (same JSON/CSV/Table methods). The ETag, when
// non-empty, goes out with the rendered result only.
func writeResult(w http.ResponseWriter, res *sweep.Result, format, etag string) error {
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
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
			w.Header().Del("ETag")
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return err
		}
		w.Header().Set("Content-Type", "application/json")
		_, err = w.Write(b)
		return err
	}
}

// compute produces a job's result through the sweep Runner. When
// workers are attached, farm first leases the job's backend misses to
// them; the Runner then reads their points back from the backend and
// computes whatever is still missing (worker loss, uncacheable items),
// so dispatch can move work but never change a result.
func (s *Server) compute(norm sweep.Job) (*flightOutcome, error) {
	leased := 0
	if s.backend != nil && s.disp.workersPresent() {
		var err error
		if leased, err = s.farm(norm); err != nil {
			return nil, err
		}
	}
	runner := sweep.Runner{Workers: s.workers, Cache: s.backend, Obs: s.reg}
	res, st, err := runner.Run(norm)
	if err != nil {
		return nil, err
	}
	return &flightOutcome{res: res, executed: leased + st.Executed}, nil
}

// farm leases a job's cacheable backend misses to the attached workers
// and waits until they are done, the workers leave, or the dispatch
// timeout passes. It returns the number of points leased.
func (s *Server) farm(norm sweep.Job) (int, error) {
	e, err := sweep.ExpandJob(norm)
	if err != nil {
		return 0, err
	}
	var indices []int
	var keys []string
	for i, it := range e.Items {
		if it.Key == "" {
			continue // uncacheable: cannot travel through the backend
		}
		if _, ok := s.backend.Get(it.Key); !ok {
			indices = append(indices, i)
			keys = append(keys, it.Key)
		}
	}
	if len(indices) == 0 {
		return 0, nil
	}
	dj := s.disp.submit(e.Job, indices, keys)
	deadline := time.Now().Add(s.dispatchTimeout)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-dj.done:
			return len(indices), nil
		case now := <-tick.C:
			s.disp.requeueExpired(now)
			if !s.disp.workersPresent() || now.After(deadline) {
				// Workers left (or the job stalled): withdraw what
				// nobody leased; the Runner computes it.
				s.disp.abandon(dj)
				return len(indices), nil
			}
		}
	}
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
	l := s.disp.lease(r.Context(), req.Max, leaseWait(req.WaitMs))
	if l == nil {
		w.WriteHeader(http.StatusNoContent) // no work inside the wait
		return
	}
	s.logf("fabric: leased %d points of %s to %s", len(l.Indices), l.Job.Kind, req.Worker)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(l)
}

// leaseWait is how long a lease poll asking for waitMs parks: 0 or
// less selects defaultLeaseWait, and more than maxLeaseWait is capped.
// The cap is applied in milliseconds, before the conversion to a
// Duration, which would overflow int64 nanoseconds for a huge waitMs.
func leaseWait(waitMs int) time.Duration {
	if waitMs <= 0 {
		return defaultLeaseWait
	}
	return time.Duration(min(waitMs, int(maxLeaseWait/time.Millisecond))) * time.Millisecond
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
