package sweep

import (
	"encoding/json"
	"fmt"
	"os"
)

// Chrome trace-event exporter: renders a run's PointTimings as a
// timeline loadable in chrome://tracing (or https://ui.perfetto.dev).
// One lane (thread) per sweep worker carries that worker's point spans,
// so the parallelism of a sweep and where its time went are visually
// inspectable.

// TraceEvent is one entry of the Trace Event Format's JSON array form.
// Timestamps and durations are in microseconds per the format.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON object form of the format ({"traceEvents": [...]}),
// which tolerates trailing metadata better than the bare array form.
type traceFile struct {
	TraceEvents []TraceEvent `json:"traceEvents"`
}

// TraceEvents converts a run's stats into trace events: process and
// per-worker thread-name metadata, then one complete ("X") span per
// unit.
func TraceEvents(st RunStats) []TraceEvent {
	events := make([]TraceEvent, 0, len(st.Timings)+st.Workers+1)
	events = append(events, TraceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "sweep"},
	})
	for w := 0; w < st.Workers; w++ {
		events = append(events, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: w + 1,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", w)},
		})
	}
	for _, t := range st.Timings {
		cat := "sim"
		if t.Cached {
			cat = "cached"
		} else if !t.Sim {
			cat = "static"
		}
		events = append(events, TraceEvent{
			Name: fmt.Sprintf("%s/%s[%d]", t.Kind, t.Series, t.Index),
			Cat:  cat,
			Ph:   "X",
			Ts:   float64(t.Start.Microseconds()),
			Dur:  durUS(t),
			Pid:  1,
			Tid:  t.Worker + 1,
			Args: map[string]any{
				"x": t.X, "cached": t.Cached, "sim": t.Sim, "job": t.Job,
			},
		})
	}
	return events
}

// durUS clamps a span to a visible minimum: chrome://tracing drops
// zero-width complete events, and cached points routinely finish in
// under a microsecond.
func durUS(t PointTiming) float64 {
	us := float64(t.Dur.Microseconds())
	if us < 1 {
		us = 1
	}
	return us
}

// WriteTrace writes the run's timeline to path in Chrome trace-event
// JSON.
func WriteTrace(path string, st RunStats) error {
	b, err := json.MarshalIndent(traceFile{TraceEvents: TraceEvents(st)}, "", " ")
	if err != nil {
		return fmt.Errorf("sweep: encode trace: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("sweep: write trace: %w", err)
	}
	return nil
}
