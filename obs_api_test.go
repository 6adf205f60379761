package blink_test

import (
	"strings"
	"testing"

	"blink"
)

// TestCommObservability exercises the public observability surface: the
// metrics registry records dispatches, the timeline records spans for sync
// and async calls, and WriteSpanTrace renders the spans as a swimlane
// trace.
func TestCommObservability(t *testing.T) {
	comm, err := blink.NewComm(blink.DGX1V(), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	tl := comm.EnableTimeline()
	if comm.Timeline() != tl {
		t.Fatal("Timeline() does not return the enabled timeline")
	}
	if _, err := comm.AllReduce(16 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := comm.AllReduceAsync(16 << 20).Wait(); err != nil {
		t.Fatal(err)
	}

	spans := tl.Spans()
	if len(spans) != 2 {
		t.Fatalf("timeline recorded %d spans, want 2", len(spans))
	}
	if spans[0].Stream != -1 {
		t.Fatalf("sync span stream = %d, want -1", spans[0].Stream)
	}
	if spans[1].Stream != int(blink.ClassBulkGradient) {
		t.Fatalf("async span lane = %d, want BulkGradient (%d)", spans[1].Stream, blink.ClassBulkGradient)
	}
	if !spans[1].CacheHit {
		t.Fatal("warm async dispatch not attributed as a cache hit")
	}
	if tl.Hash() == "" {
		t.Fatal("timeline hash empty")
	}

	snap := comm.MetricsSnapshot()
	lookups := snap.Counters["blink_plan_cache_lookups_total"]
	hits := snap.Counters["blink_plan_cache_hits_total"]
	misses := snap.Counters["blink_plan_cache_misses_total"]
	if lookups != 2 || hits+misses != lookups {
		t.Fatalf("attribution wrong: lookups %d hits %d misses %d", lookups, hits, misses)
	}
	var prom strings.Builder
	if err := comm.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "# TYPE blink_plan_cache_lookups_total counter") {
		t.Fatalf("Prometheus exposition missing cache counters:\n%s", prom.String())
	}

	var tr strings.Builder
	if err := blink.WriteSpanTrace(&tr, spans); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), `"name": "AllReduce"`) {
		t.Fatalf("span trace missing op events:\n%s", tr.String())
	}
}
