package collective

import (
	"strings"
	"sync"
	"testing"

	"blink/internal/trace"
)

// TestExchangeOpsObservability drives the three point-to-point collectives
// through RunAsync from concurrent callers and checks the observability
// layer end to end: every dispatch lands a completed span, the span set
// converts to a non-empty swimlane trace, and the plan-cache counters
// attribute every lookup exactly (hits + misses == lookups, with
// compiles/replays mirroring the split) even under contention.
func TestExchangeOpsObservability(t *testing.T) {
	eng := newTestEngine(t)
	tl := eng.EnableTimeline()
	chain := []int{0, 1, 2, 3, 4, 5, 6, 7}
	neighbors := make([][]int, 8)
	for v := range neighbors {
		neighbors[v] = []int{(v + 1) % 8, (v + 7) % 8}
	}
	cases := []struct {
		op   Op
		opts Options
	}{
		{AllToAll, Options{}},
		{SendRecv, Options{Chain: chain}},
		{NeighborExchange, Options{Neighbors: neighbors}},
	}

	const callers, rounds = 4, 2
	var wg sync.WaitGroup
	errs := make(chan error, callers*rounds*len(cases))
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, tc := range cases {
					h := eng.RunAsync(Blink, tc.op, 0, 8<<20, tc.opts)
					if _, err := h.Wait(); err != nil {
						errs <- err
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := callers * rounds * len(cases)
	spans := tl.Spans()
	if len(spans) != total {
		t.Fatalf("timeline recorded %d spans, want %d", len(spans), total)
	}
	seen := map[string]int{}
	for _, s := range spans {
		seen[s.Name]++
		if s.Err != "" {
			t.Fatalf("span %s failed: %s", s.Name, s.Err)
		}
		if s.Stream != int(BulkGradient) {
			t.Fatalf("async span %s recorded lane %d, want BulkGradient", s.Name, s.Stream)
		}
		if s.SimSeconds <= 0 || s.Chunks == 0 {
			t.Fatalf("span %s missing simulation outcome: %+v", s.Name, s)
		}
		if s.CompletedAt < s.DispatchedAt || s.DispatchedAt < s.QueuedAt {
			t.Fatalf("span %s milestones out of order: %+v", s.Name, s)
		}
	}
	for _, tc := range cases {
		if seen[tc.op.String()] != callers*rounds {
			t.Fatalf("op %v recorded %d spans, want %d", tc.op, seen[tc.op.String()], callers*rounds)
		}
	}

	// The span set must render as a non-empty swimlane trace: one complete
	// event per span (plus queue events where ops waited), every lane a
	// worker stream.
	f := trace.FromSpans(spans)
	if len(f.TraceEvents) < total {
		t.Fatalf("swimlane trace has %d events for %d spans", len(f.TraceEvents), total)
	}
	var sb strings.Builder
	if err := f.Write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if !strings.Contains(sb.String(), `"name": "`+tc.op.String()+`"`) {
			t.Fatalf("swimlane trace missing %v events", tc.op)
		}
	}

	// Exact attribution: every lookup is either a hit or a miss, every miss
	// compiled, every hit replayed — no dispatch lost or double-counted
	// under concurrent callers.
	snap := eng.Metrics().Snapshot()
	lookups := snap.Counters["blink_plan_cache_lookups_total"]
	hits := snap.Counters["blink_plan_cache_hits_total"]
	misses := snap.Counters["blink_plan_cache_misses_total"]
	if lookups != uint64(total) {
		t.Fatalf("lookups = %d, want %d (one per dispatch)", lookups, total)
	}
	if hits+misses != lookups {
		t.Fatalf("hits %d + misses %d != lookups %d", hits, misses, lookups)
	}
	if got := snap.Counters["blink_plan_compiles_total"]; got != misses {
		t.Fatalf("compiles %d != misses %d", got, misses)
	}
	if got := snap.Counters["blink_plan_replays_total"]; got != hits {
		t.Fatalf("replays %d != hits %d", got, hits)
	}
	// Three distinct plans serve all the traffic, so hits dominate.
	if misses < uint64(len(cases)) || hits == 0 {
		t.Fatalf("implausible split: hits %d misses %d", hits, misses)
	}
	// Per-op makespan histograms observed every dispatch.
	var observed uint64
	for _, tc := range cases {
		h := snap.Histograms[`blink_op_sim_seconds{op="`+tc.op.String()+`"}`]
		if h.Count != uint64(callers*rounds) {
			t.Fatalf("op histogram for %v has %d observations, want %d",
				tc.op, h.Count, callers*rounds)
		}
		observed += h.Count
	}
	if observed != uint64(total) {
		t.Fatalf("histograms observed %d dispatches, want %d", observed, total)
	}
}

// TestSyncDispatchSpans checks synchronous Run calls record spans too, with
// the sentinel stream -1 (they never enter the lane scheduler).
func TestSyncDispatchSpans(t *testing.T) {
	eng := newTestEngine(t)
	tl := eng.EnableTimeline()
	if _, err := eng.Run(Blink, AllReduce, 0, 4<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	spans := tl.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if spans[0].Stream != -1 {
		t.Fatalf("sync span stream = %d, want -1", spans[0].Stream)
	}
	if spans[0].CacheHit {
		t.Fatal("cold dispatch recorded as cache hit")
	}
	if _, err := eng.Run(Blink, AllReduce, 0, 4<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	if spans = tl.Spans(); !spans[1].CacheHit {
		t.Fatal("warm dispatch not recorded as cache hit")
	}
}

// TestReplanMetrics checks a reconfiguration lands on the replan counter
// and latency histogram, and invalidation is attributed on the cache.
func TestReplanMetrics(t *testing.T) {
	eng := newTestEngine(t)
	if _, err := eng.Run(Blink, AllReduce, 0, 4<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.ReconfigureExclude([]int{7}); err != nil {
		t.Fatal(err)
	}
	snap := eng.Metrics().Snapshot()
	if got := snap.Counters["blink_replans_total"]; got != 1 {
		t.Fatalf("replans = %d, want 1", got)
	}
	if h := snap.Histograms["blink_replan_seconds"]; h.Count != 1 {
		t.Fatalf("replan latency observations = %d, want 1", h.Count)
	}
	if got := snap.Counters["blink_plan_cache_invalidated_total"]; got == 0 {
		t.Fatal("reconfigure invalidated no cached plans")
	}
}
