package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's own files, around the calls into each layer;
// nothing inside the program under test is instrumented.
type span struct {
	Name     string
	Start    time.Time
	End      time.Time
	Parent   int // index of the causing span, -1 for a root
	Workload string
	Step     int // step (or event) id the span belongs to, -1 if none
	Calls    int // calls covered, when the span times a batch
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes share the code path.
type tracer struct {
	workload string
	spans    []span
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, start, end time.Time, parent, step, calls int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Start: start, End: end, Parent: parent,
		Workload: t.workload, Step: step, Calls: calls,
	})
	return len(t.spans) - 1
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent, step int) int {
	now := time.Now()
	return t.add(name, now, now, parent, step, 0)
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Now()
}

// traceEvent is one Chrome trace-event ("X" = complete event).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// events renders the spans as Chrome trace events. Timestamps are
// relative to the first span; nesting depth picks the tid so a viewer
// stacks children under their parents.
func (t *tracer) events() traceFile {
	var f traceFile
	if t == nil || len(t.spans) == 0 {
		return f
	}
	origin := t.spans[0].Start
	depth := make([]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			depth[i] = depth[s.Parent] + 1
		}
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: depth[i],
			Args: map[string]any{
				"id": i, "parent": s.Parent, "workload": s.Workload,
				"step": s.Step, "calls": s.Calls,
			},
		})
	}
	return f
}

// write stores the trace as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.events())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
