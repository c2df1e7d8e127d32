package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// normalizeManifest zeroes the run-dependent fields of a manifest so the
// rest can be pinned as a golden file: the environment, wall-clock
// timings (per-point and per-worker) and histogram quantiles. Counters
// and histogram counts survive: with a deterministic job the kernel
// metric deltas are exact.
func normalizeManifest(m Manifest) Manifest {
	m.Env = Environment{}
	m.Stats.Elapsed = 0
	m.Stats.WorkerBusy = nil
	for i := range m.Stats.Timings {
		m.Stats.Timings[i].Start = 0
		m.Stats.Timings[i].Dur = 0
	}
	for name, hv := range m.Stats.Metrics.Histograms {
		hv.P50Ns, hv.P90Ns, hv.P99Ns = 0, 0, 0
		m.Stats.Metrics.Histograms[name] = hv
	}
	return m
}

// TestManifestGolden pins the manifest shape: a single-worker uncached
// fig3 run, volatile fields zeroed, compared byte-for-byte against
// testdata. Because the kernel is deterministic, this also pins the
// exact published metric deltas of the reduced fig3 sweep — an
// accounting regression (lost tick, double-published counter) shows up
// as a golden diff. Regenerate with -update after intentional changes.
func TestManifestGolden(t *testing.T) {
	job := testJob(Fig3)
	results, st, err := (&Runner{Workers: 1}).RunAll([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	m := normalizeManifest(NewManifest(results, st, ""))
	got, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "manifest-fig3.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("manifest drifted from golden %s\n--- got ---\n%s", path, got)
	}
}

// TestManifestShape checks the non-golden invariants on a two-job run:
// schema tag, per-job spec hashes, series/point counts, and that the
// stats block carries one timing per executed unit.
func TestManifestShape(t *testing.T) {
	jobs := []Job{testJob(Fig3), testJob(TableI)}
	results, st, err := (&Runner{Workers: 2}).RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(results, st, "/tmp/cachedir")
	if m.Schema != ManifestSchema {
		t.Errorf("schema = %q, want %q", m.Schema, ManifestSchema)
	}
	if m.Cache != "/tmp/cachedir" {
		t.Errorf("cache = %q", m.Cache)
	}
	if len(m.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(m.Jobs))
	}
	for i, mj := range m.Jobs {
		if len(mj.SpecHash) != 16 {
			t.Errorf("job %d: specHash %q, want 16 hex chars", i, mj.SpecHash)
		}
		if mj.Kind != string(results[i].Job.Kind) {
			t.Errorf("job %d: kind %q != result kind %q", i, mj.Kind, results[i].Job.Kind)
		}
		points := 0
		for _, s := range results[i].Series {
			points += len(s.Points)
		}
		if mj.Points != points || len(mj.Series) != len(results[i].Series) {
			t.Errorf("job %d: %d series/%d points, want %d/%d",
				i, len(mj.Series), mj.Points, len(results[i].Series), points)
		}
	}
	// Same normalized spec must hash identically; different specs must not.
	if h1, h2 := specHash(results[0].Job), specHash(results[0].Job); h1 != h2 {
		t.Errorf("specHash not stable: %q vs %q", h1, h2)
	}
	if specHash(results[0].Job) == specHash(results[1].Job) {
		t.Error("distinct jobs hash identically")
	}
	if len(st.Timings) != st.Units {
		t.Errorf("timings = %d, want one per unit (%d)", len(st.Timings), st.Units)
	}
	if st.Workers != 2 || len(st.WorkerBusy) != 2 {
		t.Errorf("workers = %d, busy lanes = %d, want 2/2", st.Workers, len(st.WorkerBusy))
	}
	if m.Stats.Metrics.Counter("sweep.points.total") != uint64(st.Units) {
		t.Errorf("sweep.points.total = %d, want %d",
			m.Stats.Metrics.Counter("sweep.points.total"), st.Units)
	}
}

// TestTraceEventsValid renders a run's timeline and checks the Chrome
// trace-event contract: the file is a JSON object with a traceEvents
// array; one process-name and per-worker thread-name metadata event; one
// complete ("X") span per unit on a worker lane with a visible duration;
// and no other event.
func TestTraceEventsValid(t *testing.T) {
	jobs := []Job{testJob(Fig3), testJob(TableII)}
	_, st, err := (&Runner{Workers: 2}).RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteTrace(path, st); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	var meta, spans int
	threadNames := map[int]bool{}
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name == "thread_name" {
				threadNames[ev.Tid] = true
			}
		case "X":
			spans++
			if ev.Ts < 0 || ev.Dur < 1 {
				t.Errorf("span %q: ts=%v dur=%v, want ts>=0 dur>=1us", ev.Name, ev.Ts, ev.Dur)
			}
			if ev.Tid < 1 || ev.Tid > st.Workers {
				t.Errorf("span %q on tid %d, want a worker lane 1..%d", ev.Name, ev.Tid, st.Workers)
			}
			switch ev.Cat {
			case "sim", "cached", "static":
			default:
				t.Errorf("span %q: unknown category %q", ev.Name, ev.Cat)
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if spans != st.Units {
		t.Errorf("spans = %d, want one per unit (%d)", spans, st.Units)
	}
	if meta != st.Workers+1 {
		t.Errorf("metadata events = %d, want process + %d workers", meta, st.Workers)
	}
	for w := 1; w <= st.Workers; w++ {
		if !threadNames[w] {
			t.Errorf("missing thread_name for worker lane %d", w)
		}
	}
}
