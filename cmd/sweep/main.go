// Command sweep regenerates any subset of the registered experiment
// scenarios in one parallel shot through the internal/sweep engine:
// every independent simulation point of every selected scenario enters
// one worker pool, finished points are memoized in a content-hash disk
// cache (~/.cache/lrscwait by default), and results print as aligned
// tables, RFC 4180 CSV, or deterministic JSON.
//
// Selection is registry-driven (-kind, -list-kinds). This stock binary
// registers the seven paper kinds, the synchronization-pattern suite
// (barrier, rcu, comblock — internal/patterns) and the single-run kind
// run, which prints one kernel run's activity breakdown; a main that
// additionally calls lrscwait.RegisterScenario before reusing this
// front end's engine plumbing gets its custom scenarios on the same
// flags (see examples/customscenario for the library-side walkthrough).
//
// Beyond a scenario's fixed spec sets, the -grid flag turns the policy
// itself and its parameters into sweep axes: the cross-product of
// policy × queuecap × colibriq × backoff values runs every curve of the
// selected scenarios at every grid coordinate, one labelled series
// each. -policy is shorthand for the policy axis and accepts any
// registered platform policy name (-list-policies prints them; a main
// that calls lrscwait.RegisterPolicy before this front end's plumbing
// sweeps its custom hardware on the same flag). -params passes
// free-form key=value parameters to scenarios that define them — the
// pattern kinds ('wait=mwait variant=tree', 'maxcombine=8'), the run
// kind ('kernel=msqueue', 'variant=lrsc') and custom scenarios. Each
// kind gets only the flags its scenario reads (Scenario.Reads, tabulated
// in the README); a flag no selected kind reads, or -ms without Fig. 6,
// fails instead of being ignored.
//
// Usage:
//
//	sweep [-fig 3,4,5,6] [-table 1,2] [-kind fig3,...,table2] [-all]
//	      [-list-kinds] [-list-policies]
//	      [-topo terapool|mempool|medium|small] [-bins 1,2,4,...]
//	      [-policy lrsc,colibri,...]
//	      [-grid 'policy=lrsc,colibri queuecap=0,1,2 colibriq=2,4,8 backoff=0,64']
//	      [-params 'key=value ...']
//	      [-warmup N] [-measure N] [-matn N] [-ms]
//	      [-workers N] [-cache DIR|on|off] [-json DIR] [-csvdir DIR]
//	      [-backend disk|http=URL|tiered=URL]
//	      [-csv] [-quiet]
//	      [-manifest FILE] [-trace FILE] [-obs] [-cache-stats]
//	      [-cache-gc -cache-max-bytes SIZE]
//	      [-cpuprofile FILE] [-memprofile FILE]
//	sweep serve  [-addr :8080] [-backend ...] [-cache ...] [-workers N] [-quiet]
//	sweep worker -join URL [-workers N] [-max-points N] [-wait DUR]
//	             [-idle-exit DUR] [-name NAME] [-quiet]
//
// Service mode (package internal/fabric): `sweep serve` runs a
// long-lived node answering GET /v1/kind/{name}?format=json|csv|table
// from the warm cache — computing on miss exactly once however many
// clients ask concurrently, with cache-key-derived ETags so conditional
// re-fetches cost a 304 — and coordinating `sweep worker` machines that
// lease grid points over HTTP. The -backend flag points any mode at a
// remote node's cache ("http=URL") or layers the local disk cache in
// front of one ("tiered=URL"). -cache-gc bounds the disk cache by
// evicting least-recently-used points down to -cache-max-bytes.
//
// Observability: -manifest writes a JSON run manifest (job spec hashes,
// environment, per-point timings, full metric snapshot) next to the
// results; -trace writes a Chrome trace-event timeline (open in
// chrome://tracing) with one lane per worker; -obs dumps the run's
// metric deltas to stderr; -cache-stats reports the point cache's disk
// footprint and this process's hit/miss traffic (standalone — with no
// selection — or after a run); -cpuprofile/-memprofile write pprof
// profiles of the sweep.
//
// Examples:
//
//	sweep -all                       # full evaluation, paper scale
//	sweep -list-kinds                # print the scenario registry
//	sweep -list-policies             # print the policy registry
//	sweep -fig 3 -topo small         # one figure, 16-core machine
//	sweep -fig 3,4,5,6 -table 1,2 -topo medium -json out/
//	sweep -kind fig3 -grid 'queuecap=0,1,2,4'   # wait-queue sizing study
//	sweep -kind fig6 -policy lrsc,lrsc-table    # queue scaling per policy
//	sweep -kind run -topo small -policy lrsc -params variant=lrsc   # one run's breakdown
//	sweep -cache-stats               # inspect the default point cache
//	sweep -fig 3 -topo small -manifest run.json -trace trace.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	_ "repro/internal/patterns" // register barrier / rcu / comblock
	"repro/internal/platform"
	"repro/internal/sweep"
)

func fail(format string, args ...any) {
	sweep.Fatal("sweep", fmt.Errorf(format, args...))
}

var figKinds = map[string]sweep.Kind{
	"3": sweep.Fig3, "4": sweep.Fig4, "5": sweep.Fig5, "6": sweep.Fig6,
}

var tableKinds = map[string]sweep.Kind{
	"1": sweep.TableI, "2": sweep.TableII,
}

// fieldFlags names the flag behind each Job field the template sets.
var fieldFlags = map[sweep.Field]string{sweep.FieldBins: "-bins", sweep.FieldWindows: "-warmup/-measure",
	sweep.FieldMatN: "-matn", sweep.FieldGrid: "-grid/-policy", sweep.FieldParams: "-params"}

// splitList parses a comma-separated selector like "3,4,6".
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, tok := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(tok))
	}
	return out
}

func main() {
	// Service subcommands dispatch before ordinary flag parsing; the
	// classic one-shot CLI keeps its exact flag surface.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "worker":
			runWorker(os.Args[2:])
			return
		}
	}
	figs := flag.String("fig", "", "figures to regenerate (comma-separated subset of 3,4,5,6)")
	tables := flag.String("table", "", "tables to regenerate (comma-separated subset of 1,2)")
	kinds := flag.String("kind", "", "scenarios by registered name (comma-separated; see -list-kinds)")
	listKinds := flag.Bool("list-kinds", false, "print the registered scenario names and exit")
	listPolicies := flag.Bool("list-policies", false, "print the registered policy names and exit")
	policyFlag := flag.String("policy", "", "policy axis for figure-style sweeps: registered policy names, comma-separated (see -list-policies); shorthand for -grid 'policy=...'")
	gridFlag := flag.String("grid", "", "policy grid for figure-style sweeps, e.g. 'policy=lrsc,colibri queuecap=0,1,2,4 colibriq=2,4,8 backoff=0,64'")
	paramsFlag := flag.String("params", "", "scenario parameters, e.g. 'wait=mwait variant=tree' for the pattern kinds or 'kernel=msqueue' for the run kind")
	all := flag.Bool("all", false, "regenerate every figure and table")
	topo := flag.String("topo", "mempool", "topology: terapool (1024 cores), mempool (paper, 256), medium (64), small (16)")
	binsFlag := flag.String("bins", "", "bin counts for figs 3/4/5 (default: per-figure paper sweep)")
	warmup := flag.Int("warmup", 0, "warm-up cycles (0 = per-experiment default, negative = literally zero)")
	measure := flag.Int("measure", 0, "measured cycles (0 = per-experiment default, negative = literally zero)")
	matN := flag.Int("matn", 0, "fig 5 matrix dimension (0 = default 128)")
	ms := flag.Bool("ms", false, "fig 6 on the Michael-Scott queue instead of the FAA ring (with -fig 6 or -all)")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	cacheFlag := flag.String("cache", "", "point cache: directory, \"on\" (default, ~/.cache/lrscwait) or \"off\"")
	backendFlag := flag.String("backend", "", "point store: \"disk\" (default, the -cache directory), \"http=URL\" (a `sweep serve` node) or \"tiered=URL\" (disk in front of remote)")
	cacheGC := flag.Bool("cache-gc", false, "evict least-recently-used point-cache entries down to -cache-max-bytes (standalone with no selection, or after the run)")
	cacheMaxBytes := flag.String("cache-max-bytes", "", "cache size budget for -cache-gc: bytes, optionally suffixed K/M/G/T (e.g. 512M)")
	jsonDir := flag.String("json", "", "also write one deterministic <kind>.json per result into this directory")
	csv := flag.Bool("csv", false, "emit CSV to stdout instead of an aligned table (single selection only)")
	csvDir := flag.String("csvdir", "", "also write one <kind>.csv per result into this directory")
	quiet := flag.Bool("quiet", false, "suppress progress and run statistics on stderr")
	manifestPath := flag.String("manifest", "", "write a JSON run manifest (jobs, environment, timings, metrics) to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace-event timeline of the run to this file (open in chrome://tracing)")
	obsDump := flag.Bool("obs", false, "dump the run's metric deltas to stderr")
	cacheStats := flag.Bool("cache-stats", false, "report point-cache statistics (standalone with no selection, or after the run)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	flag.Parse()

	if *listKinds {
		names := sweep.Names()
		width := 0
		for _, name := range names {
			if len(name) > width {
				width = len(name)
			}
		}
		for _, name := range names {
			if desc := sweep.Describe(name); desc != "" {
				fmt.Printf("%-*s  %s\n", width, name, desc)
			} else {
				fmt.Println(name)
			}
		}
		return
	}
	if *listPolicies {
		for _, name := range platform.PolicyNames() {
			fmt.Println(name)
		}
		return
	}

	bins, err := sweep.ParseBins(*binsFlag)
	if err != nil {
		fail("%v", err)
	}
	grid, err := sweep.ParseGrid(*gridFlag)
	if err != nil {
		fail("%v", err)
	}
	for _, name := range splitList(*policyFlag) {
		if name == "" {
			fail("empty policy name in -policy")
		}
		grid.Policies = append(grid.Policies, name)
	}
	params, err := sweep.ParseParams(*paramsFlag)
	if err != nil {
		fail("%v", err)
	}

	figSel, tableSel, kindSel := splitList(*figs), splitList(*tables), splitList(*kinds)
	if *all {
		figSel, tableSel = []string{"3", "4", "5", "6"}, []string{"1", "2"}
	}
	gcBudget := int64(-1)
	if *cacheGC {
		if *cacheMaxBytes == "" {
			fail("-cache-gc needs -cache-max-bytes (0 evicts everything)")
		}
		var err error
		if gcBudget, err = parseSize(*cacheMaxBytes); err != nil {
			fail("%v", err)
		}
	}

	if len(figSel) == 0 && len(tableSel) == 0 && len(kindSel) == 0 {
		if *cacheStats || *cacheGC {
			// Standalone cache maintenance: no sweep, just the report —
			// a missing cache is reported, not created.
			cache, err := sweep.InspectCacheFlag(*cacheFlag)
			if err != nil {
				fail("%v", err)
			}
			if cache == nil {
				fail("cache maintenance with caching disabled (-cache off)")
			}
			if *cacheGC {
				gst, err := cache.GC(gcBudget)
				if err != nil {
					fail("%v", err)
				}
				fmt.Println(gst.Summary())
			}
			if *cacheStats {
				st, err := cache.Stats()
				if err != nil {
					fail("%v", err)
				}
				fmt.Println(st.Summary())
			}
			return
		}
		fail("nothing selected; use -fig, -table, -kind or -all (see -help)")
	}

	// Each selected kind gets the fields of the template its scenario
	// reads, so `-all -warmup N` leaves Table I without windows.
	tmpl := sweep.Job{Topo: *topo, Bins: bins, Warmup: *warmup, Measure: *measure,
		MatN: *matN, Grid: grid, Params: params}
	var jobs []sweep.Job
	var read sweep.Field
	selected := map[sweep.Kind]bool{}
	addJob := func(kind sweep.Kind) {
		// Overlapping selectors (-all -kind fig3, -fig 3 -kind fig3) would
		// print the figure twice and double-write its -json/-csvdir file.
		if selected[kind] {
			return
		}
		selected[kind] = true
		sc, ok := sweep.Lookup(string(kind))
		if !ok {
			fail("unknown kind %q (registered: %s)", kind, strings.Join(sweep.Names(), ", "))
		}
		read |= sc.Reads()
		job := tmpl.Only(sc.Reads())
		job.Kind = kind
		jobs = append(jobs, job)
	}
	// -ms picks Fig. 6's Michael-Scott variant; without Fig. 6 it is unread.
	if *ms {
		if !slices.Contains(figSel, "6") {
			fail("-ms applies to none of the selected kinds")
		}
		figKinds["6"] = sweep.Fig6MS
	}
	for _, f := range figSel {
		kind, ok := figKinds[f]
		if !ok {
			fail("unknown figure %q (have 3,4,5,6)", f)
		}
		addJob(kind)
	}
	for _, tb := range tableSel {
		kind, ok := tableKinds[tb]
		if !ok {
			fail("unknown table %q (have 1,2)", tb)
		}
		addJob(kind)
	}
	for _, k := range kindSel {
		addJob(sweep.Kind(k))
	}

	// A flag no selected kind reads would look like a study that ran.
	unread := tmpl.Fields() &^ read
	for f := sweep.FieldBins; f <= sweep.FieldParams; f <<= 1 {
		if unread&f != 0 {
			fail("%s applies to none of the selected kinds", fieldFlags[f])
		}
	}
	// In a selection of several jobs, one that keeps no (curve, policy)
	// pair under the chosen policies is reported and left out, so `-all
	// -policy plain` still runs the figures plain can serve. A lone job,
	// or a selection of nothing else, exits 2.
	if len(jobs) > 1 {
		kept := jobs[:0]
		for _, job := range jobs {
			if _, err := sweep.ExpandJob(job); errors.Is(err, sweep.ErrNotRun) {
				fmt.Fprintf(os.Stderr, "sweep: %s\n", strings.TrimPrefix(err.Error(), "sweep: "))
				continue
			}
			kept = append(kept, job)
		}
		if len(kept) == 0 {
			os.Exit(2)
		}
		jobs = kept
	}
	if *csv && len(jobs) > 1 {
		// Concatenated CSV tables with different headers don't parse;
		// write one file per result instead.
		fail("-csv emits a single table; use -csvdir DIR with multiple selections")
	}
	// Validate output locations before burning potentially hours of
	// simulation whose results they are meant to receive.
	for _, dir := range []string{*jsonDir, *csvDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fail("%v", err)
			}
		}
	}

	backend, cache, err := openBackend(*backendFlag, *cacheFlag)
	if err != nil {
		if *backendFlag != "" || *cacheFlag != "" {
			// The user asked for this store; failing it is an error.
			fail("%v", err)
		}
		// The default cache is a convenience: degrade to an uncached run
		// (e.g. no writable home directory) rather than refusing to sweep.
		fmt.Fprintf(os.Stderr, "sweep: cache disabled: %v\n", err)
		backend, cache = nil, nil
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("%v", err)
		}
	}
	runner := sweep.Runner{Workers: *workers, Cache: backend}
	var flush func()
	if !*quiet {
		runner.Progress, flush = sweep.ProgressPrinter(os.Stderr)
	}
	results, st, err := runner.RunAll(jobs)
	if flush != nil && err == nil {
		// RunAll fails only during job normalization/expansion, before
		// any progress event fires — no partial status line to
		// terminate, and a "0/0 points" line would just precede the
		// error confusingly.
		flush()
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fail("%v", err)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail("%v", err)
		}
		runtime.GC() // settle allocations so the heap profile reflects retention
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail("%v", err)
		}
		f.Close()
	}

	for i, res := range results {
		if *csv {
			fmt.Print(res.CSV())
		} else {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(res.Table().String())
		}
		if *jsonDir != "" {
			b, err := res.JSON()
			if err != nil {
				fail("%v", err)
			}
			path := filepath.Join(*jsonDir, string(res.Job.Kind)+".json")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				fail("%v", err)
			}
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, string(res.Job.Kind)+".csv")
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				fail("%v", err)
			}
		}
	}
	if *manifestPath != "" {
		cacheDir := ""
		if cache != nil {
			cacheDir = cache.Dir()
		}
		if err := sweep.NewManifest(results, st, cacheDir).WriteFile(*manifestPath); err != nil {
			fail("%v", err)
		}
	}
	if *tracePath != "" {
		if err := sweep.WriteTrace(*tracePath, st); err != nil {
			fail("%v", err)
		}
	}
	if *obsDump {
		fmt.Fprint(os.Stderr, st.Metrics.String())
	}
	if *cacheGC {
		if cache == nil {
			fmt.Fprintln(os.Stderr, "sweep: no disk cache in use, nothing to gc")
		} else {
			gst, err := cache.GC(gcBudget)
			if err != nil {
				fail("%v", err)
			}
			fmt.Fprintln(os.Stderr, "sweep: "+gst.Summary())
		}
	}
	if *cacheStats {
		if cache == nil {
			fmt.Fprintln(os.Stderr, "sweep: no disk cache in use, no cache statistics")
		} else {
			cs, err := cache.Stats()
			if err != nil {
				fail("%v", err)
			}
			fmt.Fprintln(os.Stderr, cs.Summary())
		}
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, "sweep: "+st.Summary())
	}
}
