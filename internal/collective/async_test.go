package collective

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"blink/internal/simgpu"
	"blink/internal/topology"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestAsyncMatchesSync checks an async dispatch resolves to exactly the
// synchronous result, reports progress, and exposes cache attribution.
func TestAsyncMatchesSync(t *testing.T) {
	eng := newTestEngine(t)
	const bytes = 8 << 20
	want, err := eng.Run(Blink, AllReduce, 0, bytes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := eng.RunAsync(Blink, AllReduce, 0, bytes, Options{})
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != want.Seconds || got.Strategy != want.Strategy {
		t.Fatalf("async result %+v != sync %+v", got, want)
	}
	if !h.CacheHit() {
		t.Fatal("warm async dispatch did not report a cache hit")
	}
	done, total := h.Progress()
	if total == 0 || done != total {
		t.Fatalf("resolved handle progress %d/%d, want full", done, total)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Done channel not closed after Wait")
	}
	if h.Err() != nil {
		t.Fatalf("Err() = %v on success", h.Err())
	}
}

// TestAsyncErrorThroughHandle checks submission never panics or blocks on a
// bad op: the failure resolves through the handle.
func TestAsyncErrorThroughHandle(t *testing.T) {
	eng := newTestEngine(t)
	h := eng.RunAsync(Blink, Broadcast, 99, 1<<20, Options{}) // root out of range
	if _, err := h.Wait(); err == nil {
		t.Fatal("out-of-range root resolved without error")
	}
	if h.Err() == nil {
		t.Fatal("Err() nil after failed resolve")
	}
	// A payload below the 4-byte floor also fails through the handle.
	if _, err := eng.RunAsync(Blink, AllReduce, 0, 2, Options{}).Wait(); err == nil {
		t.Fatal("undersized payload resolved without error")
	}
}

// waitDrained polls until the engine's lane scheduler has no queued or
// running work, then checks the BulkGradient lane's outstanding-byte
// ledger is back to zero.
func waitDrained(t *testing.T, eng *Engine) *laneScheduler {
	t.Helper()
	sched := eng.qos.scheduler(eng.Metrics())
	waitQuiesced(t, sched)
	sched.mu.Lock()
	outstanding := sched.lanes[BulkGradient].outstanding
	sched.mu.Unlock()
	if outstanding != 0 {
		t.Fatalf("BulkGradient lane outstanding %d bytes after drain", outstanding)
	}
	return sched
}

// admissions reads one lane's admission counter for a verdict.
func admissions(eng *Engine, c Class, v Verdict) uint64 {
	return eng.Metrics().Counter(`blink_admission_total{lane="` + c.String() + `",verdict="` + v.String() + `"}`).Value()
}

// TestAsyncBackpressure checks untenanted submissions wait once their
// lane reaches its low watermark, count as deferrals, and are released
// as completions drain the lane.
func TestAsyncBackpressure(t *testing.T) {
	eng := newTestEngine(t)
	cfg := QoSConfig{Workers: 1}
	cfg.Lanes[BulkGradient] = LaneConfig{LowWater: 64 << 20}
	eng.ConfigureQoS(cfg)
	// Warm the plan so queued ops replay quickly.
	if _, err := eng.Run(Blink, AllReduce, 0, 32<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	var submitted atomic.Int32
	doneSubmitting := make(chan []*Handle[Result])
	go func() {
		var hs []*Handle[Result]
		for i := 0; i < 8; i++ {
			hs = append(hs, eng.RunAsync(Blink, AllReduce, 0, 32<<20, Options{}))
			submitted.Add(1)
		}
		doneSubmitting <- hs
	}()
	hs := <-doneSubmitting
	if got := submitted.Load(); got != 8 {
		t.Fatalf("submitted %d of 8", got)
	}
	for _, h := range hs {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// The watermark admits at most 2 x 32 MB at once, so a burst of eight
	// must have waited; every wait counts as a deferral.
	if admissions(eng, BulkGradient, VerdictDefer) == 0 {
		t.Fatal("burst past the low watermark never waited")
	}
	if got := admissions(eng, BulkGradient, VerdictReject); got != 0 {
		t.Fatalf("untenanted submissions rejected %d times", got)
	}
	waitDrained(t, eng)
}

// TestAsyncReconfigureLeavesNoDeadPlans checks queued async dispatches
// pinned to a pre-fault snapshot cannot re-pin LRU slots under the
// invalidated fingerprint: lookupOrCompile's post-Put state re-check
// invalidates the stale fingerprint after every compile from a pinned
// snapshot, so once all handles resolve the cache holds no plans for the
// dead topology.
func TestAsyncReconfigureLeavesNoDeadPlans(t *testing.T) {
	eng := newTestEngine(t)
	oldFP := eng.Fingerprint()
	var handles []*Handle[Result]
	for i := 0; i < 10; i++ {
		handles = append(handles, eng.RunAsync(Blink, AllReduce, 0, int64((i+1))<<20, Options{}))
	}
	if err := eng.ReconfigureExclude([]int{7}); err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Late async traffic on the post-fault topology keeps the cache warm
	// under the new fingerprint only.
	if _, err := eng.RunAsync(Blink, AllReduce, 0, 1<<20, Options{}).Wait(); err != nil {
		t.Fatal(err)
	}
	cache := eng.PlanCacheHandle()
	cache.mu.Lock()
	defer cache.mu.Unlock()
	for el := cache.order.Front(); el != nil; el = el.Next() {
		if k := el.Value.(*cacheEntry).key; k.Fingerprint == oldFP {
			t.Fatalf("dead-fingerprint plan still resident: %+v", k)
		}
	}
	if len(cache.entries) == 0 {
		t.Fatal("cache empty: post-fault plans should be resident")
	}
}

// TestAsyncOversizedOpAdmitted checks ops larger than the lane's whole
// low watermark still run instead of deadlocking: each enters whenever the
// lane is below the mark, so the second waits for the first and then runs
// alone.
func TestAsyncOversizedOpAdmitted(t *testing.T) {
	eng := newTestEngine(t)
	cfg := QoSConfig{Workers: 1}
	cfg.Lanes[BulkGradient] = LaneConfig{LowWater: 8 << 20}
	eng.ConfigureQoS(cfg)
	hs := []*Handle[Result]{
		eng.RunAsync(Blink, AllReduce, 0, 64<<20, Options{}),
		eng.RunAsync(Blink, AllReduce, 0, 64<<20, Options{}),
	}
	for _, h := range hs {
		select {
		case <-h.Done():
		case <-time.After(30 * time.Second):
			t.Fatal("oversized op never resolved")
		}
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, eng)
}

// TestAsyncBurstPastQueueCapWaits checks an untenanted burst into a lane
// at its queue bound waits and then resolves in full, while a tenant
// submitting at the same lane state is rejected outright.
func TestAsyncBurstPastQueueCapWaits(t *testing.T) {
	eng := newTestEngine(t)
	cfg := QoSConfig{Workers: 1}
	cfg.Lanes[BulkGradient] = LaneConfig{QueueCap: 2, LowWater: -1, HighWater: -1}
	eng.ConfigureQoS(cfg)
	if _, err := eng.Run(Blink, AllReduce, 0, 1<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	sched := eng.qos.scheduler(eng.Metrics())

	// Hold the single worker, then fill the lane's queue to its bound.
	release := make(chan struct{})
	started := make(chan struct{})
	sched.submit(laneSub{class: BulkGradient, bytes: 1, run: func() { close(started); <-release }})
	<-started
	for i := 0; i < 2; i++ {
		if v := sched.submit(laneSub{class: BulkGradient, bytes: 1, run: func() { <-release }}); v != VerdictAdmit {
			t.Fatalf("filling the queue: verdict %v", v)
		}
	}

	tn := eng.NewTenant(TenantConfig{Name: "bulk", Class: BulkGradient})
	h, v := eng.RunAsyncTenant(tn, Blink, AllReduce, 0, 1<<20, Options{})
	if v != VerdictReject || !errors.Is(h.Err(), ErrAdmissionRejected) {
		t.Fatalf("tenant at a full lane: verdict %v, err %v; want rejection", v, h.Err())
	}

	burst := make(chan []*Handle[Result])
	go func() {
		var hs []*Handle[Result]
		for i := 0; i < 6; i++ {
			hs = append(hs, eng.RunAsync(Blink, AllReduce, 0, 1<<20, Options{}))
		}
		burst <- hs
	}()
	select {
	case <-burst:
		t.Fatal("untenanted burst returned while its lane sat at QueueCap")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	for i, h := range <-burst {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("burst handle %d: %v", i, err)
		}
	}
	if admissions(eng, BulkGradient, VerdictDefer) == 0 {
		t.Fatal("waited submissions not counted as deferrals")
	}
	if got := admissions(eng, BulkGradient, VerdictReject); got != 1 {
		t.Fatalf("rejections %d, want only the tenant's 1", got)
	}
	waitDrained(t, eng)
}

// TestAsyncWaiterNotStalledByTenants checks tenants cannot stall an
// untenanted submitter on a shared lane: while a tenant holds the lane
// between its watermarks, where the tenant's own traffic is only
// deferred, a waiting AllReduceAsync makes the lane reject further tenant
// submissions, and it resolves once the tenant's work drains.
func TestAsyncWaiterNotStalledByTenants(t *testing.T) {
	eng := newTestEngine(t)
	cfg := QoSConfig{Workers: 1}
	cfg.Lanes[BulkGradient] = LaneConfig{LowWater: 8 << 20, HighWater: 1 << 30}
	eng.ConfigureQoS(cfg)
	if _, err := eng.Run(Blink, AllReduce, 0, 1<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	sched := eng.qos.scheduler(eng.Metrics())
	tn := eng.NewTenant(TenantConfig{Name: "bulk", Class: BulkGradient})

	// The tenant takes the single worker with 16 MB outstanding: past
	// LowWater, far below HighWater.
	release := make(chan struct{})
	started := make(chan struct{})
	if v := sched.submit(laneSub{class: BulkGradient, tenant: tn, bytes: 16 << 20,
		run: func() { close(started); <-release }}); v != VerdictAdmit {
		t.Fatalf("tenant's holding op: verdict %v", v)
	}
	<-started
	deferred, v := eng.RunAsyncTenant(tn, Blink, AllReduce, 0, 1<<20, Options{})
	if v != VerdictDefer {
		t.Fatalf("tenant between the watermarks: verdict %v, want defer", v)
	}

	waiter := make(chan *Handle[Result])
	go func() { waiter <- eng.RunAsync(Blink, AllReduce, 0, 1<<20, Options{}) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		sched.mu.Lock()
		n := sched.lanes[BulkGradient].waiters
		sched.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("untenanted submission never waited on the lane")
		}
		time.Sleep(100 * time.Microsecond)
	}
	h, v := eng.RunAsyncTenant(tn, Blink, AllReduce, 0, 1<<20, Options{})
	if v != VerdictReject || !errors.Is(h.Err(), ErrAdmissionRejected) {
		t.Fatalf("tenant while an untenanted submitter waits: verdict %v, err %v; want rejection", v, h.Err())
	}

	close(release)
	select {
	case h := <-waiter:
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		if !h.Deferred() {
			t.Fatal("waited submission not marked deferred")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("untenanted submission never entered after the tenant's work drained")
	}
	if _, err := deferred.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := admissions(eng, BulkGradient, VerdictDefer); got != 2 {
		t.Fatalf("deferrals %d, want 2 (the tenant's and the waiter's)", got)
	}
	if st := tn.Stats(); st.SubmittedOps != st.AdmittedOps+st.RejectedOps || st.RejectedOps != 1 {
		t.Fatalf("tenant ledger %+v, want exactly one rejection", st)
	}
	waitDrained(t, eng)
}

// TestClusterAsync checks the cluster engine's async path end to end.
func TestClusterAsync(t *testing.T) {
	c, err := topology.NewCluster([]topology.Server{
		{Machine: topology.DGX1V(), Devs: []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{Machine: topology.DGX1V(), Devs: []int{0, 1, 2, 3, 4, 5, 6, 7}},
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewClusterEngine(c, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(Blink, AllReduce, 0, 16<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := eng.RunAsync(Blink, AllReduce, 0, 16<<20, Options{})
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != want.Seconds || got.Phase2 != want.Phase2 {
		t.Fatalf("cluster async %+v != sync %+v", got, want)
	}
	if !h.CacheHit() {
		t.Fatal("warm cluster async dispatch did not hit the cache")
	}
	if done, total := h.Progress(); total == 0 || done != total {
		t.Fatalf("cluster handle progress %d/%d", done, total)
	}
}
