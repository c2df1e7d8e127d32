package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// maxSpans caps the spans a traced run keeps; later spans are counted
// as dropped. The served workload issues tens of cache reads per request,
// which would otherwise make the trace hundreds of megabytes.
const maxSpans = 100_000

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Times are offsets from the tracer's start.
type span struct {
	name       string
	start, end time.Duration
	parent     int // span id, 0 for a root
	req        int // request, pass or window number
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when not recorded).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, req: req})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover (children of one span may overlap when they ran on
// different goroutines, so their union is subtracted).
func selfTimes(spans []span) []time.Duration {
	children := map[int][]int{}
	for i, s := range spans {
		if s.parent > 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[i+1]
		slices.SortFunc(kids, func(a, b int) int { return int(spans[a].start - spans[b].start) })
		covered, reach := time.Duration(0), s.start
		for _, k := range kids {
			from, to := max(spans[k].start, reach), min(spans[k].end, s.end)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] -= covered
	}
	return self
}

// lanes assigns every span a thread lane so that spans on one lane nest
// or follow each other, as the Chrome viewer requires. A span prefers
// its parent's lane.
func lanes(spans []span) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if spans[a].start != spans[b].start {
			return int(spans[a].start - spans[b].start)
		}
		return int(spans[b].end - spans[a].end)
	})
	lane := make([]int, len(spans))
	var open [][]time.Duration // per lane, the ends of the spans still open
	fits := func(l int, s span) bool {
		st := open[l]
		for len(st) > 0 && st[len(st)-1] <= s.start {
			st = st[:len(st)-1]
		}
		open[l] = st
		return len(st) == 0 || st[len(st)-1] >= s.end
	}
	for _, i := range order {
		s := spans[i]
		l := -1
		if s.parent > 0 && fits(lane[s.parent-1], s) {
			l = lane[s.parent-1]
		}
		for c := 0; l < 0 && c < len(open); c++ {
			if fits(c, s) {
				l = c
			}
		}
		if l < 0 {
			open = append(open, nil)
			l = len(open) - 1
		}
		open[l] = append(open[l], s.end)
		lane[i] = l
	}
	return lane
}

// writeChrome writes the spans as a Chrome trace-event file (load it in
// chrome://tracing or https://ui.perfetto.dev). Each event carries its
// id, parent, request number and self time; otherData totals self time
// per span name.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	dropped := t.dropped
	t.mu.Unlock()
	for i := range spans {
		if spans[i].end < 0 { // never closed: the call panicked or is still running
			spans[i].end = spans[i].start
		}
	}
	self := selfTimes(spans)
	lane := lanes(spans)
	events := make([]traceEvent, len(spans))
	selfByName := map[string]float64{}
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: lane[i],
			Args: map[string]any{"id": i + 1, "parent": s.parent, "req": s.req,
				"self_us": float64(self[i]) / 1e3},
		}
		selfByName[s.name] += float64(self[i]) / 1e6
	}
	b, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData": map[string]any{
			"self_ms_by_name": selfByName,
			"dropped_spans":   dropped,
		},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// callStats accumulates the latencies of one kind of backend call.
type callStats struct {
	mu   sync.Mutex
	lat  []time.Duration
	hits atomic.Int64
	hitT atomic.Int64 // total ns of successful calls
}

func (c *callStats) record(d time.Duration, ok bool) {
	c.mu.Lock()
	c.lat = append(c.lat, d)
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		c.hitT.Add(int64(d))
	}
}

// latenciesUs returns the recorded latencies in microseconds.
func (c *callStats) latenciesUs() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.lat))
	for i, d := range c.lat {
		out[i] = float64(d) / 1e3
	}
	return out
}

// timedBackend times Get and Put on the cache backend for traced runs.
// It forwards RegistryScoped and StatsReporter, so the runner and the
// server behave exactly as they do over the bare cache.
type timedBackend struct {
	sweep.Backend
	tr     *tracer
	parent *atomic.Int64 // span the next calls nest under (0 = root)
	gets   *callStats
	puts   *callStats
}

func newTimedBackend(b sweep.Backend, tr *tracer) *timedBackend {
	return &timedBackend{Backend: b, tr: tr, parent: new(atomic.Int64),
		gets: &callStats{}, puts: &callStats{}}
}

func (b *timedBackend) Get(key string) (sweep.Point, bool) {
	id := b.tr.begin("Backend.Get", int(b.parent.Load()), 0)
	t := time.Now()
	p, ok := b.Backend.Get(key)
	b.gets.record(time.Since(t), ok)
	b.tr.end(id)
	return p, ok
}

func (b *timedBackend) Put(key string, p sweep.Point) error {
	id := b.tr.begin("Backend.Put", int(b.parent.Load()), 0)
	t := time.Now()
	err := b.Backend.Put(key, p)
	b.puts.record(time.Since(t), err == nil)
	b.tr.end(id)
	return err
}

// ScopedBackend keeps the timing wrapper around the scoped view.
func (b *timedBackend) ScopedBackend(reg *obs.Registry) sweep.Backend {
	rs, ok := b.Backend.(sweep.RegistryScoped)
	if !ok {
		return b
	}
	c := *b
	c.Backend = rs.ScopedBackend(reg)
	return &c
}

// Stats forwards to the wrapped backend.
func (b *timedBackend) Stats() (sweep.CacheStats, error) {
	sr, ok := b.Backend.(sweep.StatsReporter)
	if !ok {
		return sweep.CacheStats{}, fmt.Errorf("bench: %s backend reports no stats", b.Name())
	}
	return sr.Stats()
}

// shareLayers are the source layers host CPU time is grouped into.
var shareLayers = []string{"platform", "noc", "mem", "cpu", "engine", "colibri",
	"reserve", "sweep", "fabric", "stdlib", "runtime", "other"}

// layerOf maps a source file, as a -trimpath build records it, to its
// layer: the repository's internal packages by name (sub-packages count
// toward their parent), the Go runtime, the rest of the standard
// library, and everything else (other repository packages, this
// benchmark). The simulator is a replaced dependency of the benchmark
// module, so its files read "repro@v0.0.0/internal/...".
func layerOf(file string) string {
	if mod, rest, ok := strings.Cut(file, "/"); ok && strings.HasPrefix(mod, "repro@") {
		file = "repro/" + rest
	}
	if rest, ok := strings.CutPrefix(file, "repro/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, "/")
		if slices.Contains(shareLayers, pkg) {
			return pkg
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(file, "repro/"), !strings.Contains(file, "/"):
		return "other"
	case strings.HasPrefix(file, "runtime/"), strings.HasPrefix(file, "internal/runtime/"):
		return "runtime"
	}
	return "stdlib"
}

// hostShares reads a CPU profile through `go tool pprof -top -files`
// and returns each layer's share of the sampled CPU time (flat, by
// source file).
func hostShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-files",
		"-nodecount=0", "-nodefraction=0", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("bench: go tool pprof %s: %w", profile, err)
	}
	return parseTopFiles(out)
}

// parseTopFiles sums the flat column of pprof -top -files output per
// layer, as shares of the profile's total.
func parseTopFiles(out []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || f[0] == "flat" {
			continue
		}
		d, err := parseFlat(f[0])
		if err != nil {
			continue
		}
		shares[layerOf(f[5])] += d
		total += d
	}
	if total == 0 {
		return nil, fmt.Errorf("bench: CPU profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// parseFlat parses a pprof duration such as "1.20s", "350ms", "1.5mins"
// or "0" into seconds.
func parseFlat(s string) (float64, error) {
	if v, ok := strings.CutSuffix(s, "mins"); ok {
		m, err := strconv.ParseFloat(v, 64)
		return m * 60, err
	}
	if v, ok := strings.CutSuffix(s, "hrs"); ok {
		h, err := strconv.ParseFloat(v, 64)
		return h * 3600, err
	}
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	return d.Seconds(), err
}
