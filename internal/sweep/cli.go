package sweep

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Flag parsing and progress reporting for the cmd/sweep front end and
// its serve/worker subcommands.

// ParseBins parses a comma-separated list of positive bin counts.
func ParseBins(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var bins []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad bin count %q", tok)
		}
		bins = append(bins, v)
	}
	return bins, nil
}

// Grid holds the policy axes a sweep can cross-product over, as parsed
// from a -grid flag. Each non-empty axis overrides the corresponding
// policy dimension on every curve of a scenario, and the cross-product
// of all set axes multiplies the series set: one labelled series per
// (curve, grid coordinate), whose points cross-product with the curve's
// own coordinate into independent units. Policies names registered
// platform policies (see platform.PolicyNames), replacing each curve's
// baked-in hardware policy outright; the remaining axes are literal
// parameter values: QueueCaps in WaitQueue slots (0 = ideal, one per
// core), ColibriQueues in head/tail pairs (>= 1), Backoffs in cycles (0
// = literally no backoff). Empty axes leave the curves' baked-in policy
// untouched; the zero Grid reproduces the grid-free sweep exactly.
type Grid struct {
	Policies      []string `json:"policies,omitempty"`
	QueueCaps     []int    `json:"queueCaps,omitempty"`
	ColibriQueues []int    `json:"colibriQueues,omitempty"`
	Backoffs      []int    `json:"backoffs,omitempty"`
}

// ParseGrid parses the -grid flag syntax: whitespace-separated
// axis=v1,v2,... clauses, e.g.
//
//	policy=lrsc,colibri queuecap=0,1,2,4 colibriq=2,4,8 backoff=0,64
//
// Axes are policy (registered platform policy names — existence checks
// are Normalize's job), queuecap (WaitQueue slots, 0 = ideal), colibriq
// (head/tail pairs) and backoff (cycles, 0 = none). Numeric values are
// non-negative integers; range checks beyond that are Normalize's job.
// A repeated axis accumulates. The empty string parses to the zero
// Grid.
func ParseGrid(s string) (Grid, error) {
	var g Grid
	for _, clause := range strings.Fields(s) {
		axis, list, ok := strings.Cut(clause, "=")
		if !ok || list == "" {
			return Grid{}, fmt.Errorf("bad grid clause %q (want axis=v1,v2,...)", clause)
		}
		if axis == "policy" {
			for _, tok := range strings.Split(list, ",") {
				name := strings.TrimSpace(tok)
				if name == "" {
					return Grid{}, fmt.Errorf("bad policy grid value %q", tok)
				}
				g.Policies = append(g.Policies, name)
			}
			continue
		}
		var vals []int
		for _, tok := range strings.Split(list, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 0 {
				return Grid{}, fmt.Errorf("bad %s grid value %q", axis, tok)
			}
			vals = append(vals, v)
		}
		switch axis {
		case "queuecap":
			g.QueueCaps = append(g.QueueCaps, vals...)
		case "colibriq":
			g.ColibriQueues = append(g.ColibriQueues, vals...)
		case "backoff":
			g.Backoffs = append(g.Backoffs, vals...)
		default:
			return Grid{}, fmt.Errorf("unknown grid axis %q (have policy, queuecap, colibriq, backoff)", axis)
		}
	}
	return g, nil
}

// IsZero reports whether no axis is set.
func (g Grid) IsZero() bool {
	return len(g.Policies) == 0 && len(g.QueueCaps) == 0 &&
		len(g.ColibriQueues) == 0 && len(g.Backoffs) == 0
}

// ParseParams parses the -params flag syntax: whitespace-separated
// key=value clauses, e.g. "kernel=amoadd iters=500". Keys and values are
// opaque to the engine — scenarios interpret them in Normalize/Curves —
// but every entry is part of the cache identity. The empty string parses
// to nil. A repeated key is an error: silently keeping one of two values
// would sweep something other than what was asked.
func ParseParams(s string) (map[string]string, error) {
	var params map[string]string
	for _, clause := range strings.Fields(s) {
		k, v, ok := strings.Cut(clause, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("bad params clause %q (want key=value)", clause)
		}
		if _, dup := params[k]; dup {
			return nil, fmt.Errorf("duplicate params key %q", k)
		}
		if params == nil {
			params = map[string]string{}
		}
		params[k] = v
	}
	return params, nil
}

// OpenCacheFlag resolves a -cache flag value: "off"/"none" disables
// caching, ""/"on"/"default" selects the user cache dir, and anything
// else is a directory path.
func OpenCacheFlag(v string) (*Cache, error) {
	switch v {
	case "off", "none":
		return nil, nil
	case "", "on", "default":
		return OpenCache("")
	default:
		return OpenCache(v)
	}
}

// InspectCacheFlag resolves a -cache flag value for read-only
// inspection: same spelling as OpenCacheFlag, but the cache directory is
// never created — asking for stats on a cache that does not exist
// reports "no cache at <dir>" instead of conjuring an empty one.
func InspectCacheFlag(v string) (*Cache, error) {
	switch v {
	case "off", "none":
		return nil, nil
	case "", "on", "default":
		return InspectCache("")
	default:
		return InspectCache(v)
	}
}

// Fatal prints a tool-prefixed error to stderr and exits 2. Engine
// errors already carry the "sweep: " package prefix; it is stripped so
// every front end reports "tool: message" uniformly.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, strings.TrimPrefix(err.Error(), "sweep: "))
	os.Exit(2)
}

// ProgressPrinter returns a Progress callback that live-updates a status
// line on w (intended for a terminal's stderr). The callback is safe for
// concurrent use; call the returned flush once the run is done to
// terminate the line.
func ProgressPrinter(w io.Writer) (progress func(Event), flush func()) {
	var mu sync.Mutex
	maxDone, total, cached := 0, 0, 0
	return func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Cached {
				cached++
			}
			if ev.Done > maxDone {
				maxDone = ev.Done
			}
			total = ev.Total
			fmt.Fprintf(w, "\rsweep: %d/%d points (%d cached)", maxDone, ev.Total, cached)
		}, func() {
			mu.Lock()
			defer mu.Unlock()
			// Terminate the status line unconditionally: a zero-point run
			// (everything deduplicated or an empty selection) must still
			// leave the terminal on a fresh line, not mid-overwrite.
			fmt.Fprintf(w, "\rsweep: %d/%d points (%d cached)\n", maxDone, total, cached)
		}
}

// Summary formats the run statistics for the CLI's stderr reporting,
// including the cache-hit rate over the run's units.
func (st RunStats) Summary() string {
	rate := 0.0
	if st.Units > 0 {
		rate = 100 * float64(st.CacheHits) / float64(st.Units)
	}
	return fmt.Sprintf("%d points: %d simulated, %d cached (%.0f%% hit rate) in %v",
		st.Units, st.Executed, st.CacheHits, rate,
		st.Elapsed.Round(time.Millisecond))
}
