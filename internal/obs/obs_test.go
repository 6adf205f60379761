package obs

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Fatal("re-resolving a counter returned a different handle")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilRegistryAndNilMetricsAreUsable(t *testing.T) {
	var r *Registry
	// Nil registries resolve standalone metrics; nil metric receivers no-op.
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z", nil).Observe(1)
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	var tl *Timeline
	rec := tl.Begin("op", "Blink", 0, 8)
	if rec != nil {
		t.Fatal("Begin on a nil timeline must return nil")
	}
	rec.Dispatch()
	if rec.ChunkHook() != nil {
		t.Fatal("ChunkHook on a nil recorder must be nil (hook chaining relies on it)")
	}
	rec.Complete("s", true, 1, nil)
	if tl.Len() != 0 || tl.Spans() != nil {
		t.Fatal("nil timeline must stay empty")
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 106.5 {
		t.Fatalf("sum = %g, want 106.5", h.Sum())
	}
	s := r.Snapshot().Histograms["lat"]
	// Cumulative le semantics: le=1 covers {0.5, 1}, le=10 adds {5},
	// +Inf adds {100}.
	wantCum := []uint64{2, 3, 4}
	if len(s.Buckets) != 3 {
		t.Fatalf("bucket count = %d, want 3", len(s.Buckets))
	}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d cum count = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[2].UpperBound, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", s.Buckets[2].UpperBound)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewRegistry().Histogram("h", nil)
	var wg sync.WaitGroup
	const per, workers = 500, 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if h.Count() != per*workers {
		t.Fatalf("count = %d, want %d", h.Count(), per*workers)
	}
	if math.Abs(h.Sum()-0.01*per*workers) > 1e-6 {
		t.Fatalf("sum = %g, want %g", h.Sum(), 0.01*per*workers)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("blink_hits_total").Add(3)
	r.Gauge(`blink_depth{stream="0"}`).Set(2)
	r.Gauge(`blink_depth{stream="1"}`).Set(5)
	r.Histogram("blink_lat_seconds", []float64{1}).Observe(0.5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE blink_hits_total counter\n",
		"blink_hits_total 3\n",
		"# TYPE blink_depth gauge\n",
		"blink_depth{stream=\"0\"} 2\n",
		"blink_depth{stream=\"1\"} 5\n",
		"# TYPE blink_lat_seconds histogram\n",
		"blink_lat_seconds_bucket{le=\"1\"} 1\n",
		"blink_lat_seconds_bucket{le=\"+Inf\"} 1\n",
		"blink_lat_seconds_sum 0.5\n",
		"blink_lat_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Labeled series share one TYPE line.
	if strings.Count(out, "# TYPE blink_depth ") != 1 {
		t.Fatalf("labeled series must share one TYPE line:\n%s", out)
	}
	// Deterministic: a second render is byte-identical.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatal("Prometheus exposition is not deterministic")
	}
}

func TestTimelineSpanLifecycle(t *testing.T) {
	tl := NewTimeline()
	rec := tl.Begin("AllReduce", "Blink", 2, 1<<20)
	rec.Dispatch()
	hook := rec.ChunkHook()
	for i := 1; i <= 8; i++ {
		hook(i, 8)
	}
	rec.Complete("trees", true, 0.125, nil)
	spans := tl.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "AllReduce" || s.Backend != "Blink" || s.Stream != 2 ||
		s.Bytes != 1<<20 || s.Strategy != "trees" || !s.CacheHit ||
		s.SimSeconds != 0.125 || s.Chunks != 8 || s.Err != "" {
		t.Fatalf("span fields wrong: %+v", s)
	}
	// Quarter marks: 2/8, 4/8, 6/8, 8/8.
	if len(s.Events) != 4 {
		t.Fatalf("events = %d, want 4 quarter marks", len(s.Events))
	}
	if s.CompletedAt < s.DispatchedAt || s.DispatchedAt < s.QueuedAt {
		t.Fatalf("milestones out of order: %+v", s)
	}

	rec = tl.Begin("Broadcast", "NCCL", 0, 4)
	rec.Complete("", false, 0, errors.New("boom"))
	spans = tl.Spans()
	if spans[1].Err != "boom" {
		t.Fatalf("err span = %+v", spans[1])
	}
	if spans[1].Seq != 1 {
		t.Fatalf("seq = %d, want 1", spans[1].Seq)
	}
}

func TestTimelineHashIgnoresWallClock(t *testing.T) {
	build := func(extraDelay bool) *Timeline {
		tl := NewTimeline()
		for i := 0; i < 3; i++ {
			rec := tl.Begin("AllReduce", "Blink", i, 64)
			rec.Dispatch()
			if extraDelay {
				// Perturb only the wall-clock fields.
				rec.span.DispatchedAt += 0.5
			}
			rec.Complete("trees", i > 0, 0.25, nil)
		}
		return tl
	}
	a, b := build(false), build(true)
	if a.Hash() != b.Hash() {
		t.Fatal("hash must ignore wall-clock fields")
	}
	// Any simulation-determined field divergence changes the hash.
	c := NewTimeline()
	for i := 0; i < 3; i++ {
		rec := c.Begin("AllReduce", "Blink", i, 64)
		rec.Complete("trees", i > 0, 0.26, nil) // different makespan
	}
	if c.Hash() == a.Hash() {
		t.Fatal("hash must cover the simulated makespan")
	}
}

func TestEvidenceDeterministicSerialization(t *testing.T) {
	ev := Evidence{
		Tool:           "test",
		Seed:           42,
		Topology:       "fp",
		Backend:        "Blink",
		Model:          "ResNet50",
		FaultSchedule:  []string{"iter 3: link-down 0-3"},
		Iterations:     8,
		Spans:          32,
		StepSimSeconds: []float64{0.004, 0.005},
		TimelineHash:   "abc",
	}
	var a, b strings.Builder
	if err := ev.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := ev.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("evidence serialization is not deterministic")
	}
	if ev.Fingerprint() == "" || len(ev.Fingerprint()) != 16 {
		t.Fatalf("fingerprint = %q, want 16 hex chars", ev.Fingerprint())
	}
	ev2 := ev
	ev2.TimelineHash = "def"
	if ev2.Fingerprint() == ev.Fingerprint() {
		t.Fatal("fingerprint must cover the timeline hash")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	r.Gauge("b").Set(-2)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"a_total": 1`, `"b": -2`} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("JSON export missing %q:\n%s", want, sb.String())
		}
	}
}
