package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/stats"
)

// Well-known metric names: the measurements the built-in scenarios fill.
// Point.Metric and Point.SetMetric map them onto the corresponding
// struct fields; any other name lands in the free-form Extra map, so
// custom scenarios can define their own metrics and still flow through
// the same cache, emitters and generic table.
const (
	MetricThroughput  = "throughput"
	MetricMinPerCore  = "min_per_core"
	MetricMaxPerCore  = "max_per_core"
	MetricRel         = "rel"
	MetricBaselineOps = "baseline_ops"
	MetricLoadedOps   = "loaded_ops"
	MetricBackoff     = "backoff"
	MetricPowerMW     = "power_mw"
	MetricEnergyPJ    = "energy_pj"
	MetricDeltaPct    = "delta_pct"
	MetricPaperPJ     = "paper_pj"
	MetricAreaKGE     = "area_kge"
	MetricOverheadPct = "overhead_pct"
	MetricPaperKGE    = "paper_kge"
)

// Point is one sweep measurement: a coordinate (X, optionally Label and
// Params) plus named metrics. The well-known metrics are struct fields
// — a union across the built-in scenarios, each serializing only what it
// measures thanks to omitempty — and scenario-defined metrics live in
// Extra. Access uniformly through Metric/SetMetric/Metrics.
type Point struct {
	// X is the swept coordinate: bin count (fig3/4/5), active core
	// count (fig6), row index (tables), or whatever a custom scenario
	// sweeps.
	X     int    `json:"x"`
	Label string `json:"label,omitempty"` // table row name

	// Histogram / queue throughput (fig3, fig4, fig6).
	Throughput float64 `json:"throughput,omitempty"`
	MinPerCore float64 `json:"minPerCore,omitempty"`
	MaxPerCore float64 `json:"maxPerCore,omitempty"`

	// Interference (fig5).
	Rel         float64 `json:"rel,omitempty"`
	BaselineOps float64 `json:"baselineOps,omitempty"`
	LoadedOps   float64 `json:"loadedOps,omitempty"`

	// Energy (table2).
	Backoff  int     `json:"backoff,omitempty"`
	PowerMW  float64 `json:"powerMW,omitempty"`
	PJPerOp  float64 `json:"pjPerOp,omitempty"`
	DeltaPct float64 `json:"deltaPct,omitempty"`
	PaperPJ  float64 `json:"paperPJ,omitempty"`

	// Area (table1).
	Params      string  `json:"params,omitempty"`
	AreaKGE     float64 `json:"areaKGE,omitempty"`
	OverheadPct float64 `json:"overheadPct,omitempty"`
	PaperKGE    float64 `json:"paperKGE,omitempty"`

	// Extra holds scenario-defined metrics beyond the well-known set.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// metricFields maps the well-known metric names to their Point fields.
var metricFields = map[string]func(*Point) *float64{
	MetricThroughput:  func(p *Point) *float64 { return &p.Throughput },
	MetricMinPerCore:  func(p *Point) *float64 { return &p.MinPerCore },
	MetricMaxPerCore:  func(p *Point) *float64 { return &p.MaxPerCore },
	MetricRel:         func(p *Point) *float64 { return &p.Rel },
	MetricBaselineOps: func(p *Point) *float64 { return &p.BaselineOps },
	MetricLoadedOps:   func(p *Point) *float64 { return &p.LoadedOps },
	MetricPowerMW:     func(p *Point) *float64 { return &p.PowerMW },
	MetricEnergyPJ:    func(p *Point) *float64 { return &p.PJPerOp },
	MetricDeltaPct:    func(p *Point) *float64 { return &p.DeltaPct },
	MetricPaperPJ:     func(p *Point) *float64 { return &p.PaperPJ },
	MetricAreaKGE:     func(p *Point) *float64 { return &p.AreaKGE },
	MetricOverheadPct: func(p *Point) *float64 { return &p.OverheadPct },
	MetricPaperKGE:    func(p *Point) *float64 { return &p.PaperKGE },
}

// Metric returns the named measurement. Matching the JSON encoding's
// omitempty convention, a zero-valued well-known metric reads as absent;
// Extra entries are present whatever their value.
func (p Point) Metric(name string) (float64, bool) {
	if name == MetricBackoff {
		return float64(p.Backoff), p.Backoff != 0
	}
	if f, ok := metricFields[name]; ok {
		v := *f(&p)
		return v, v != 0
	}
	v, ok := p.Extra[name]
	return v, ok
}

// metricReader resolves the named metric's accessor once, for loops
// that read it from many points; an absent metric reads as zero.
func metricReader(name string) func(*Point) float64 {
	if name == MetricBackoff {
		return func(p *Point) float64 { return float64(p.Backoff) }
	}
	if f, ok := metricFields[name]; ok {
		return func(p *Point) float64 { return *f(p) }
	}
	return func(p *Point) float64 { return p.Extra[name] }
}

// SetMetric stores the named measurement, into the matching struct field
// for a well-known name and into Extra otherwise.
func (p *Point) SetMetric(name string, v float64) {
	if name == MetricBackoff {
		p.Backoff = int(v)
		return
	}
	if f, ok := metricFields[name]; ok {
		*f(p) = v
		return
	}
	if p.Extra == nil {
		p.Extra = map[string]float64{}
	}
	p.Extra[name] = v
}

// Metrics returns the sorted names of the point's present metrics
// (nonzero well-known fields plus every Extra entry).
func (p Point) Metrics() []string {
	var names []string
	for name := range metricFields {
		if _, ok := p.Metric(name); ok {
			names = append(names, name)
		}
	}
	if p.Backoff != 0 {
		names = append(names, MetricBackoff)
	}
	for name := range p.Extra {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// GridCoord identifies one point of a policy grid: which axes the job
// swept and the value each takes for a series. Unset axes stay nil and
// are omitted from JSON, so results of grid-free jobs serialize exactly
// as before the grid axes existed. Policy overrides the hardware policy
// itself (a registered platform policy name); the remaining axes
// override its parameters.
type GridCoord struct {
	Policy        *string `json:"policy,omitempty"`
	QueueCap      *int    `json:"queueCap,omitempty"`
	ColibriQueues *int    `json:"colibriQueues,omitempty"`
	Backoff       *int    `json:"backoff,omitempty"`
}

// IsZero reports whether no axis is set (a grid-free sweep).
func (g GridCoord) IsZero() bool {
	return g.Policy == nil && g.QueueCap == nil && g.ColibriQueues == nil && g.Backoff == nil
}

// Label renders the coordinate in the -grid flag syntax, e.g.
// "policy=lrsc queuecap=2 colibriq=4 backoff=64". Empty when no axis is
// set.
func (g GridCoord) Label() string {
	var parts []string
	if g.Policy != nil {
		parts = append(parts, "policy="+*g.Policy)
	}
	if g.QueueCap != nil {
		parts = append(parts, "queuecap="+strconv.Itoa(*g.QueueCap))
	}
	if g.ColibriQueues != nil {
		parts = append(parts, "colibriq="+strconv.Itoa(*g.ColibriQueues))
	}
	if g.Backoff != nil {
		parts = append(parts, "backoff="+strconv.Itoa(*g.Backoff))
	}
	return strings.Join(parts, " ")
}

// merge overlays the coordinate's set axes on a curve's baseline
// policy: the policy axis replaces its Kind by registered name and the
// parameter axes replace the matching fields.
func (g GridCoord) merge(base experiments.Policy) experiments.Policy {
	if g.Policy != nil {
		base.Kind = platform.PolicyKind(*g.Policy)
	}
	if g.QueueCap != nil {
		base.QueueCap = *g.QueueCap
	}
	if g.ColibriQueues != nil {
		base.ColibriQueues = *g.ColibriQueues
	}
	if g.Backoff != nil {
		base.Backoff = int32(*g.Backoff)
	}
	return base
}

// ref returns the coordinate as a Series field: nil for the zero
// coordinate, so grid-free series keep their pre-grid JSON encoding.
func (g GridCoord) ref() *GridCoord {
	if g.IsZero() {
		return nil
	}
	c := g
	return &c
}

// Series is one curve (or one whole table, for the table kinds). Grid
// labels the policy-grid coordinate the curve was measured at; it is nil
// for grid-free sweeps.
type Series struct {
	Name   string     `json:"name"`
	Grid   *GridCoord `json:"grid,omitempty"`
	Points []Point    `json:"points"`
}

// Result is the assembled output of one Job. Its JSON encoding is
// deterministic: the job is normalized, series and point order are fixed
// by the job spec, and no run-dependent data (timing, cache statistics)
// is included. NotRun names each (curve, policy) pair left out because
// the policy serves nothing the curve's code can make progress with.
type Result struct {
	Job    Job      `json:"job"`
	Cores  int      `json:"cores"`
	Series []Series `json:"series"`
	NotRun []string `json:"notRun,omitempty"`
}

// JSON renders the result as indented, deterministic JSON: the bytes of
// json.MarshalIndent(r, "", "  ") and a newline, or an error where it
// errors (FuzzResultJSON), written in one pass into a pooled buffer.
// Series and points are written directly, each point by walking
// pointFields, the table decodePoint reads, so one table describes a
// point in both directions and TestPointFieldsMatchStruct guards both.
// The small parts, the job header, a series' grid coordinate and
// NotRun, go through json.Marshal and json.Indent at their depth.
func (r *Result) JSON() ([]byte, error) {
	buf := jsonBufs.Get().(*[]byte)
	defer jsonBufs.Put(buf)
	b, err := r.appendJSON((*buf)[:0])
	if err != nil {
		return nil, err
	}
	*buf = b
	return bytes.Clone(b), nil
}

// jsonBufs pools JSON's buffers, so that a render allocates its result
// once whatever its number of points. A buffer keeps the capacity of
// the largest result written into it.
var jsonBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendJSON appends the JSON of r to b.
func (r *Result) appendJSON(b []byte) ([]byte, error) {
	b, err := appendIndented(append(b, "{\n  \"job\": "...), &r.Job, 1)
	if err != nil {
		return nil, err
	}
	b = strconv.AppendInt(append(b, ",\n  \"cores\": "...), int64(r.Cores), 10)
	if b, err = appendArray(append(b, ",\n  \"series\": "...), r.Series, "\n  ]", appendSeries); err != nil {
		return nil, err
	}
	if len(r.NotRun) > 0 {
		if b, err = appendIndented(append(b, ",\n  \"notRun\": "...), &r.NotRun, 1); err != nil {
			return nil, err
		}
	}
	return append(b, "\n}\n"...), nil
}

// appendSeries writes one element of the series array, at depth 2.
func appendSeries(b []byte, s *Series) ([]byte, error) {
	b = appendString(append(b, "\n    {\n      \"name\": "...), s.Name)
	var err error
	if s.Grid != nil {
		if b, err = appendIndented(append(b, ",\n      \"grid\": "...), s.Grid, 3); err != nil {
			return nil, err
		}
	}
	if b, err = appendArray(append(b, ",\n      \"points\": "...), s.Points, "\n      ]", appendPoint); err != nil {
		return nil, err
	}
	return append(b, "\n    }"...), nil
}

// appendArray writes a slice as json.MarshalIndent does: null when it
// is nil, [] when it is empty, and otherwise each element through elem,
// which starts the element's line, then the closing line end.
func appendArray[T any](b []byte, s []T, end string, elem func([]byte, *T) ([]byte, error)) ([]byte, error) {
	switch {
	case s == nil:
		return append(b, "null"...), nil
	case len(s) == 0:
		return append(b, "[]"...), nil
	}
	sep := byte('[')
	for i := range s {
		var err error
		if b, err = elem(append(b, sep), &s[i]); err != nil {
			return nil, err
		}
		sep = ','
	}
	return append(b, end...), nil
}

// appendPoint writes one element of a points array, at depth 4: every
// field of pointFields that omitempty keeps, in table order. X, the
// first, is the one field without omitempty.
func appendPoint(b []byte, p *Point) ([]byte, error) {
	b = append(b, "\n        {"...)
	var err error
	for i := range pointFields {
		switch f := &pointFields[i]; {
		case f.int != nil:
			if v := *f.int(p); v != 0 || i == 0 {
				b = strconv.AppendInt(appendPointKey(b, i, f.key), int64(v), 10)
			}
		case f.float != nil:
			if v := *f.float(p); v != 0 {
				b, err = appendFloat(appendPointKey(b, i, f.key), v)
			}
		case f.str != nil:
			if v := *f.str(p); v != "" {
				b = appendString(appendPointKey(b, i, f.key), v)
			}
		case len(p.Extra) > 0:
			b, err = appendExtra(appendPointKey(b, i, f.key), p.Extra)
		}
		if err != nil {
			return nil, err
		}
	}
	return append(b, "\n        }"...), nil
}

// appendPointKey starts field i of a point: the comma after the one
// before, then its line and key.
func appendPointKey(b []byte, i int, key string) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	b = append(append(b, "\n          \""...), key...)
	return append(b, "\": "...)
}

// appendExtra writes the Extra map at depth 5, keys in ascending order
// as json.Marshal sorts them.
func appendExtra(b []byte, m map[string]float64) ([]byte, error) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var err error
	sep := byte('{')
	for _, k := range keys {
		b = appendString(append(append(b, sep), "\n            "...), k)
		if b, err = appendFloat(append(b, ": "...), m[k]); err != nil {
			return nil, err
		}
		sep = ','
	}
	return append(b, "\n          }"...), nil
}

// appendFloat writes v as encoding/json writes a float64: the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 up with the exponent's
// leading zero trimmed. NaN and ±Inf are an error, as they are there.
func appendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, v, 'e', -1, 64)
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' { // e-07 to e-7
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b, nil
	}
	return strconv.AppendFloat(b, v, 'f', -1, 64), nil
}

// appendString writes s as json.Marshal does: verbatim when every byte
// is jsonVerbatim, the test cutKey makes too, and through json.Marshal
// otherwise, for its escapes and its handling of invalid UTF-8.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonVerbatim(s[i]) {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// jsonVerbatim reports whether json.Marshal writes byte c of a string
// as itself: printable ASCII but for '"', '\\' and the HTML-escaped '<',
// '>' and '&'.
func jsonVerbatim(c byte) bool {
	switch c {
	case '"', '\\', '<', '>', '&':
		return false
	}
	return 0x20 <= c && c <= 0x7e
}

// appendIndented writes json.Marshal(v) as json.MarshalIndent(…, "",
// "  ") lays it out when v sits at the given depth.
func appendIndented(b []byte, v any, depth int) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(b)
	if err := json.Indent(buf, raw, "      "[:2*depth], "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Table renders the result through its scenario's TableRenderer — the
// built-in kinds keep the paper's per-figure table layouts — falling
// back to the generic metric table for scenarios without one. Each
// NotRun pair becomes a "not run:" note below the rows.
func (r *Result) Table() *stats.Table {
	t := genericTable
	if sc, ok := Lookup(string(r.Job.Kind)); ok {
		if tr, ok := sc.(TableRenderer); ok {
			t = tr.Table
		}
	}
	tbl := t(r)
	for _, n := range r.NotRun {
		tbl.Notes = append(tbl.Notes, "not run: "+n)
	}
	return tbl
}

// points returns the single series of a table-kind result (empty when
// the result holds none).
func (r *Result) points() []Point {
	if len(r.Series) == 0 {
		return nil
	}
	return r.Series[0].Points
}

// CSV renders the result's table as RFC 4180 CSV.
func (r *Result) CSV() string { return r.Table().CSV() }
