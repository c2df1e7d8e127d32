package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
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

	idents  identityMemo
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
// compute-only). The node remembers the 64 most recently used jobs,
// each rendered once in every format when it finishes, and answers
// repeat requests for them by writing those bytes, without touching the
// backend; a job goes back through the backend once it has been
// remembered for five minutes (memoRefresh). A repeat of a request's
// exact kind and raw query also skips deriving the job's identity
// again: the node keeps up to identityMemoCap derived identities
// (identityMemo), which decide nothing about what is served or when.
func NewServer(backend sweep.Backend, opts ...ServerOption) *Server {
	s := &Server{backend: backend, dispatchTimeout: 30 * time.Minute}
	for _, o := range opts {
		o(s)
	}
	// Scope the backend once, the way the Runner does, so the cache
	// surface and dispatch probes report into the server's registry too.
	if rs, ok := backend.(sweep.RegistryScoped); ok {
		s.backend = rs.ScopedBackend(s.reg)
	}
	s.disp = newDispatcher(s.reg, 0)
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	return s
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
	enc.Encode(s.reg.Snapshot())
}

func (s *Server) handleKinds(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sweep.Names())
}

// queryKeys are the query parameters jobFromQuery reads.
var queryKeys = []string{"topo", "bins", "warmup", "measure", "matn", "cores", "grid", "params", "format"}

// jobFromQuery maps GET /v1/kind/{name} query parameters onto a Job:
// topo, bins, warmup, measure, matn, cores, grid (the -grid flag
// syntax), params (the -params flag syntax) and format (json|csv|table,
// default json). Any other key, or a repeated one, is refused, so no
// value is ever dropped. Validation beyond syntax is Normalize's job.
func jobFromQuery(r *http.Request) (sweep.Job, string, error) {
	q := r.URL.Query()
	j := sweep.Job{Kind: sweep.Kind(r.PathValue("name")), Topo: q.Get("topo")}
	for _, k := range slices.Sorted(maps.Keys(q)) {
		if !slices.Contains(queryKeys, k) {
			return j, "", fmt.Errorf("unknown query key %q (known: %s)", k, strings.Join(queryKeys, ", "))
		}
		if len(q[k]) > 1 {
			return j, "", fmt.Errorf("repeated query key %q", k)
		}
	}
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
	if j.Grid, err = sweep.ParseGrid(q.Get("grid")); err != nil {
		return j, "", err
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

// identityMemoCap bounds the identity memo. A full memo is cleared
// whole: a working set over the bound re-derives, which is what every
// request did before the memo, and what a flood of distinct queries can
// force.
const identityMemoCap = 1024

// identityMemoMaxQuery is the longest raw query the identity memo
// stores, so its keys hold at most a few MiB however long the queries
// sent; a longer query derives its job on every request. A query naming
// every axis of every built-in kind is a few hundred bytes.
const identityMemoMaxQuery = 4 << 10

// identityKey is what a /v1/kind request's job is derived from: the
// path's kind and the raw query. A struct of the two strings, not their
// concatenation, so a lookup builds no key and allocates nothing.
type identityKey struct{ kind, rawQuery string }

// derivedJob is everything handleKind derives from a request before it
// asks the flight group: the normalized job, the requested format, the
// job identity, the ETag and the flight key.
//
// A memoized derivedJob is shared by every request with its key, on
// any goroutine, so nothing may mutate it. norm aliases its Params map
// and its Bins and Grid slices with the jobs compute builds from it
// (the Result's Job included); they only read them.
type derivedJob struct {
	norm      sweep.Job
	format    string
	id        string // jobIdentity(norm); "" without a binary fingerprint
	etag      string // "" when id is
	flightKey string // id, or norm's JSON spec when id is ""
}

// identityMemo maps a request's (kind, raw query) to its derivedJob, so
// a repeated hit or revalidation skips jobFromQuery, Normalize and
// jobIdentity's json.Marshal and sha256. That is sound because the
// derivation is a pure function of the key: once the scenario, policy
// and topology registries are filled at init, Normalize reads nothing
// else, and the binary fingerprint is fixed for the process. Only
// derivations that succeed are stored, so a query refused before its
// scenario or policy registered is derived again after. A reordered
// query is another key, a miss that derives the same identity. The memo
// holds identities, not bodies: the flight group's memory still decides
// what is served and when the backend is read again.
type identityMemo struct {
	mu sync.Mutex
	m  map[identityKey]*derivedJob
}

// derive returns r's derivedJob, from the memo when r's kind and raw
// query were derived before. Its error is the 400 answer's text.
func (s *Server) derive(r *http.Request) (*derivedJob, error) {
	key := identityKey{r.PathValue("name"), r.URL.RawQuery}
	s.idents.mu.Lock()
	d := s.idents.m[key]
	s.idents.mu.Unlock()
	if d != nil {
		return d, nil
	}
	job, format, err := jobFromQuery(r)
	if err != nil {
		return nil, err
	}
	norm, err := job.Normalize()
	if err != nil {
		return nil, errors.New(strings.TrimPrefix(err.Error(), "sweep: "))
	}
	d = &derivedJob{norm: norm, format: format, id: jobIdentity(norm)}
	d.flightKey = d.id
	if d.id != "" {
		// The ETag derives from the same identity the cache keys on:
		// binary fingerprint + normalized job, suffixed per format since
		// each format serves different bytes.
		d.etag = `"` + d.id[:32] + "-" + format + `"`
	} else {
		// Coalescing is in-process, so it needs no cross-binary
		// identity: the flight key falls back to the normalized spec.
		spec, _ := json.Marshal(norm)
		d.flightKey = string(spec)
	}
	if len(key.rawQuery) > identityMemoMaxQuery {
		return d, nil
	}
	s.idents.mu.Lock()
	if len(s.idents.m) >= identityMemoCap {
		clear(s.idents.m)
	}
	if s.idents.m == nil {
		s.idents.m = make(map[identityKey]*derivedJob)
	}
	s.idents.m[key] = d
	s.idents.mu.Unlock()
	return d, nil
}

// etagMatches implements If-None-Match: a comma-separated list of
// entity tags, or "*". Weak-validator prefixes are accepted — byte
// identity is exactly what the job-identity ETag asserts. It walks the
// list in place, so a revalidation allocates nothing here.
func etagMatches(header, etag string) bool {
	for more := true; more; {
		var tok string
		tok, header, more = strings.Cut(header, ",")
		tok = strings.TrimPrefix(strings.TrimSpace(tok), "W/")
		if tok == "*" || tok == etag {
			return true
		}
	}
	return false
}

// flightOutcome is what one singleflight execution hands every caller:
// the job's bodies in each format, rendered once when the flight
// finishes, so a joined or remembered request writes bytes instead of
// rendering them again. It is never changed after the flight returns.
type flightOutcome struct {
	json     []byte
	jsonErr  error // the JSON render error, served as a 500 to json requests only
	csv      []byte
	table    []byte
	executed int // leased plus locally simulated points; 0 is a hit
}

// render renders res in every format the service serves, through the
// same emitters as the CLI: JSON, and CSV and text from one Table.
func render(res *sweep.Result, executed int) *flightOutcome {
	tbl := res.Table()
	out := &flightOutcome{csv: []byte(tbl.CSV()), table: []byte(tbl.String()), executed: executed}
	out.json, out.jsonErr = res.JSON()
	return out
}

// handleKind answers GET /v1/kind/{name}: a 304 when If-None-Match
// names the job's ETag, else the job's body in the requested format,
// from the flight group (computing at most once per job). A repeat of
// an exact kind and raw query reads its derived job from the identity
// memo, so a remembered hit or a 304 parses, normalizes and hashes
// nothing.
func (s *Server) handleKind(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Counter("fabric.requests").Inc()
	d, err := s.derive(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The ETag is sent only with a 200 or a 304, never with an error.
	if d.etag != "" {
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, d.etag) {
			s.reg.Counter("fabric.not_modified").Inc()
			w.Header().Set("ETag", d.etag)
			w.WriteHeader(http.StatusNotModified)
			s.reg.Histogram("fabric.latency.not_modified").Observe(time.Since(start))
			return
		}
	}

	// Coalesce identical concurrent jobs regardless of requested format
	// — compute and render once, write per caller — and answer repeats
	// of a finished job from the flight group's memory. A job without a
	// fingerprint-based identity coalesces on its spec but is never
	// remembered. The memory holds each job's rendered bodies, all three
	// formats, so a repeat costs a write, not a render.
	v, err, src := s.flights.do(d.flightKey, d.id != "", func() (any, error) {
		return s.compute(d.norm)
	})
	if src == flightJoined {
		s.reg.Counter("fabric.coalesced").Inc()
	}
	if errors.Is(err, sweep.ErrNotRun) {
		// No curve of the job can make progress under its policies: the
		// request, not the server, is at fault.
		http.Error(w, strings.TrimPrefix(err.Error(), "sweep: "), http.StatusBadRequest)
		return
	}
	if err != nil {
		s.reg.Counter("fabric.errors").Inc()
		s.logf("fabric: %s: %v", d.norm.Kind, err)
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
		s.reg.Counter("fabric.hits").Inc()
	case out.executed > 0:
		latency = "fabric.latency.miss"
		if src == flightRan {
			s.reg.Counter("fabric.misses").Inc()
		}
	case src == flightRan:
		s.reg.Counter("fabric.hits").Inc()
	}
	if err := writeResult(w, out, d.format, d.etag); err != nil {
		s.reg.Counter("fabric.errors").Inc()
		s.logf("fabric: render %s: %v", d.norm.Kind, err)
		return
	}
	s.reg.Histogram(latency).Observe(time.Since(start))
}

// writeResult writes an outcome's body in the requested format, which
// its flight rendered through the CLI emitters (same JSON/CSV/Table
// methods), so the bytes are identical to theirs. The ETag, when
// non-empty, goes out with the body only: a JSON render error is a 500
// without it.
func writeResult(w http.ResponseWriter, out *flightOutcome, format, etag string) error {
	body, ctype := out.json, "application/json"
	switch format {
	case "csv":
		body, ctype = out.csv, "text/csv; charset=utf-8"
	case "table":
		body, ctype = out.table, "text/plain; charset=utf-8"
	default:
		if out.jsonErr != nil {
			http.Error(w, out.jsonErr.Error(), http.StatusInternalServerError)
			return out.jsonErr
		}
	}
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	w.Header().Set("Content-Type", ctype)
	_, err := w.Write(body)
	return err
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
	return render(res, leased+st.Executed), nil
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

// decodeBody decodes the one JSON value in r's first limit bytes into
// v. Anything after that value but whitespace is an error, so a body
// holding a second value or trailing junk is refused, not half read.
func decodeBody(r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, limit))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	if s.backend == nil {
		http.Error(w, "no backend", http.StatusServiceUnavailable)
		return
	}
	var e CacheEntry
	if err := decodeBody(r, sweep.MaxEntryBytes, &e); err != nil {
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
	if err := decodeBody(r, 1<<20, &req); err != nil {
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
	if err := decodeBody(r, 1<<20, &req); err != nil {
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
