// Package trace exports executed schedules as Chrome trace-event JSON
// (chrome://tracing, Perfetto) so a plan's pipelining, link occupancy and
// stream interleaving can be inspected visually — the debugging loop the
// paper's authors describe for CodeGen output.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"blink/internal/core"
	"blink/internal/obs"
	"blink/internal/simgpu"
)

// Event is one Chrome trace event (phase "X": complete event).
type Event struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// File is the trace-event file wrapper.
type File struct {
	TraceEvents     []Event           `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"otherData,omitempty"`
}

// FromPlan executes the plan (if not yet executed) and converts every op
// into a complete event: one "process" per link (so each link renders as a
// swimlane) with the op's stream as the thread ID.
//
// FromPlan is idempotent: a plan whose ops already carry timings from a
// previous execution is traced as-is, never re-run — re-executing would
// redo the whole simulated schedule (and, in data mode, replay every Exec
// closure's data movement) just to read back timings it already has.
func FromPlan(plan *core.Plan) (*File, error) {
	if !planExecuted(plan) {
		if _, err := plan.Execute(); err != nil {
			return nil, err
		}
	}
	return FromOps(plan.Fabric, plan.Ops), nil
}

// planExecuted reports whether the plan's ops carry timings. A completed
// run marks every op scheduled; a fresh plan has none marked (the simulator
// clears the flags on entry, so a partially failed run also reads as
// unexecuted and is re-run).
func planExecuted(plan *core.Plan) bool {
	if len(plan.Ops) == 0 {
		return false
	}
	for _, op := range plan.Ops {
		if !op.Scheduled() {
			return false
		}
	}
	return true
}

// FromOps converts already-executed ops into a trace file.
func FromOps(f *simgpu.Fabric, ops []*simgpu.Op) *File {
	out := &File{DisplayTimeUnit: "ns", Metadata: map[string]string{
		"generator": "blink/internal/trace",
	}}
	for _, op := range ops {
		if op.Finish() <= op.Start() {
			continue // zero-duration sync op
		}
		lane := -1
		if op.Link >= 0 {
			lane = op.Link
		} else if len(op.Links) > 0 {
			lane = op.Links[0]
		}
		name := op.Label
		if name == "" {
			name = "op"
		}
		cat := "copy"
		if lane >= 0 && f != nil && f.Links[lane].Label != "" && len(f.Links[lane].Label) >= 6 && f.Links[lane].Label[:6] == "reduce" {
			cat = "reduce"
		}
		out.TraceEvents = append(out.TraceEvents, Event{
			Name: name,
			Cat:  cat,
			Ph:   "X",
			TS:   op.Start() * 1e6,
			Dur:  (op.Finish() - op.Start()) * 1e6,
			PID:  lane + 1, // pid 0 is reserved for sync ops
			TID:  op.Stream,
		})
	}
	sort.Slice(out.TraceEvents, func(i, j int) bool {
		if out.TraceEvents[i].TS != out.TraceEvents[j].TS {
			return out.TraceEvents[i].TS < out.TraceEvents[j].TS
		}
		return out.TraceEvents[i].PID < out.TraceEvents[j].PID
	})
	return out
}

// FromSpans converts an op timeline (obs spans) into a trace file where
// every lane scheduler lane renders as a swimlane: one "process" per lane
// (pid = lane + 1; sync dispatches, lane -1, land on pid 0) with the span's
// Seq as the thread ID so overlapping ops on one lane stack instead of
// merging. Each span
// yields up to two complete events: a "queued" event covering submission →
// dispatch (when the op actually waited) and the op event covering
// dispatch → completion, named after the collective and labeled with its
// strategy category.
func FromSpans(spans []obs.Span) *File {
	out := &File{DisplayTimeUnit: "ns", Metadata: map[string]string{
		"generator": "blink/internal/trace",
	}}
	for _, s := range spans {
		name := s.Name
		if name == "" {
			name = "op"
		}
		cat := s.Strategy
		if cat == "" {
			cat = "op"
		}
		pid := s.Stream + 1
		if wait := s.DispatchedAt - s.QueuedAt; wait > 0 {
			out.TraceEvents = append(out.TraceEvents, Event{
				Name: name + " (queued)",
				Cat:  "queue",
				Ph:   "X",
				TS:   s.QueuedAt * 1e6,
				Dur:  wait * 1e6,
				PID:  pid,
				TID:  s.Seq,
			})
		}
		dur := s.CompletedAt - s.DispatchedAt
		if dur < 0 {
			dur = 0
		}
		out.TraceEvents = append(out.TraceEvents, Event{
			Name: name,
			Cat:  cat,
			Ph:   "X",
			TS:   s.DispatchedAt * 1e6,
			Dur:  dur * 1e6,
			PID:  pid,
			TID:  s.Seq,
		})
	}
	sort.Slice(out.TraceEvents, func(i, j int) bool {
		if out.TraceEvents[i].TS != out.TraceEvents[j].TS {
			return out.TraceEvents[i].TS < out.TraceEvents[j].TS
		}
		return out.TraceEvents[i].PID < out.TraceEvents[j].PID
	})
	return out
}

// Write serializes the trace as JSON.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// Summary aggregates per-link busy time from executed ops — a quick text
// alternative to the visual trace.
type Summary struct {
	Makespan float64
	Links    []LinkUsage
}

// LinkUsage is one link's aggregate occupancy.
type LinkUsage struct {
	Link     int
	Label    string
	BusySecs float64
	Ops      int
	// Utilization is BusySecs / Makespan.
	Utilization float64
}

// Summarize computes link utilization for executed ops.
func Summarize(f *simgpu.Fabric, ops []*simgpu.Op) *Summary {
	s := &Summary{}
	busy := map[int]*LinkUsage{}
	for _, op := range ops {
		if op.Finish() > s.Makespan {
			s.Makespan = op.Finish()
		}
		lanes := op.Links
		if len(lanes) == 0 && op.Link >= 0 {
			lanes = []int{op.Link}
		}
		for _, l := range lanes {
			u := busy[l]
			if u == nil {
				u = &LinkUsage{Link: l}
				if f != nil && l < len(f.Links) {
					u.Label = f.Links[l].Label
				}
				busy[l] = u
			}
			u.BusySecs += op.Finish() - op.Start()
			u.Ops++
		}
	}
	for _, u := range busy {
		if s.Makespan > 0 {
			u.Utilization = u.BusySecs / s.Makespan
		}
		s.Links = append(s.Links, *u)
	}
	sort.Slice(s.Links, func(i, j int) bool { return s.Links[i].BusySecs > s.Links[j].BusySecs })
	return s
}

// Fprint renders the summary.
func (s *Summary) Fprint(w io.Writer, top int) {
	fmt.Fprintf(w, "makespan %.3f ms\n", s.Makespan*1e3)
	for i, u := range s.Links {
		if top > 0 && i >= top {
			break
		}
		fmt.Fprintf(w, "  %-20s busy %7.3f ms (%5.1f%%) over %d ops\n",
			u.Label, u.BusySecs*1e3, 100*u.Utilization, u.Ops)
	}
}
