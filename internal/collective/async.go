package collective

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"blink/internal/core"
	"blink/internal/obs"
)

// yieldEvery is how many completed chunks an async replay processes between
// cooperative yields: frequent enough that replays on concurrent lane
// workers interleave chunk-by-chunk even on few cores, rare enough that the
// yield cost disappears next to the per-chunk scheduling work.
const yieldEvery = 64

// Handle is the caller's reference to one in-flight async collective,
// returned by the *Async entry points and resolving to R (Result on an
// Engine, ClusterResult on a ClusterEngine). Exactly one of (result,
// error) becomes available when the op resolves; handles are safe for
// concurrent use by any number of goroutines.
type Handle[R any] struct {
	done chan struct{}
	res  R
	err  error
	hit  bool
	// deferred is set by the submitter (before the handle escapes to other
	// goroutines) when admission returned VerdictDefer.
	deferred bool

	chunksDone  atomic.Int64
	chunksTotal atomic.Int64
}

// complete publishes the op's outcome and releases every waiter. The
// result fields are written strictly before the channel close, so waiters
// reading them after Done()/Wait() never race.
func (h *Handle[R]) complete(res R, hit bool, err error) {
	h.res, h.hit, h.err = res, hit, err
	close(h.done)
}

// Wait blocks until the collective resolves and returns its result. It may
// be called any number of times, from any goroutine; every call returns
// the same outcome.
func (h *Handle[R]) Wait() (R, error) {
	<-h.done
	return h.res, h.err
}

// Done returns a channel that is closed when the collective resolves —
// the select-friendly form of Wait.
func (h *Handle[R]) Done() <-chan struct{} { return h.done }

// Err peeks at the handle without blocking: nil while the op is still in
// flight or if it succeeded, the terminal error once it has failed.
func (h *Handle[R]) Err() error {
	select {
	case <-h.done:
		return h.err
	default:
		return nil
	}
}

// Deferred reports whether admission returned VerdictDefer for this op:
// it was admitted and will run, but its lane was past a bound. A tenant
// should take it as a back-off signal; an untenanted submission has
// already backed off, because it waited for the lane to drain before
// entering.
func (h *Handle[R]) Deferred() bool { return h.deferred }

// CacheHit reports whether the dispatch replayed a cached plan (valid
// after the handle resolves; false while in flight).
func (h *Handle[R]) CacheHit() bool {
	select {
	case <-h.done:
		return h.hit
	default:
		return false
	}
}

// Progress returns the chunk-granular replay progress: ops (pipelined
// chunk transfers and reductions) completed so far and the schedule total.
// Total is 0 until the plan is compiled and its replay begins.
func (h *Handle[R]) Progress() (done, total int64) {
	return h.chunksDone.Load(), h.chunksTotal.Load()
}

// hook returns the ReplayHook an async dispatch runs under: it publishes
// chunk progress on the handle and yields the worker goroutine every
// yieldEvery chunks, so replays in flight on different workers interleave
// chunk-by-chunk instead of monopolizing a core each.
func (h *Handle[R]) hook() func(done, total int) {
	return func(done, total int) {
		h.chunksTotal.Store(int64(total))
		h.chunksDone.Store(int64(done))
		if done%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

// submitAsync is the one async dispatch path of both engines: it opens the
// op's span on its lane, hands run to the lane scheduler and returns the
// handle run resolves. An untenanted submission (sub.wait) blocks while
// its lane is past a bound; a tenant submission never blocks, and a
// rejected one resolves its handle with ErrAdmissionRejected.
func submitAsync[R any](sched *laneScheduler, tl *obs.Timeline, b Backend, op Op, sub laneSub,
	run func(hook core.ReplayHook, rec *obs.SpanRecorder) (R, bool, error)) (*Handle[R], Verdict) {
	h := &Handle[R]{done: make(chan struct{})}
	rec := tl.Begin(op.String(), b.String(), int(sub.class), sub.bytes)
	sub.run = func() {
		res, hit, err := run(h.hook(), rec)
		h.complete(res, hit, err)
	}
	v := sched.submit(sub)
	switch v {
	case VerdictReject:
		rec.Complete("", false, 0, ErrAdmissionRejected)
		var zero R
		h.complete(zero, false, fmt.Errorf("%w: tenant %s class %s (%d bytes)",
			ErrAdmissionRejected, sub.tenant.Name(), sub.class, sub.bytes))
	case VerdictDefer:
		h.deferred = true
	}
	return h, v
}

// ConfigureQoS tunes the engine's lane scheduler — the runtime behind
// every async dispatch, tenanted or not — before first use (see
// QoSConfig; zero fields take the documented defaults).
func (e *Engine) ConfigureQoS(cfg QoSConfig) { e.qos.configure(cfg) }

// RunAsync submits one collective nonblockingly on the BulkGradient lane
// and returns its Handle.
//
// The engine's topology state is pinned at submission: a Reconfigure that
// lands while the op is queued or executing does not affect it — it
// completes on its snapshot, exactly like a synchronous call that was
// already in flight — while every submission after the reconfiguration
// sees the post-fault state. RunAsync blocks only for backpressure: while
// the lane is at its queue bound or past its low watermark of outstanding
// bytes, it waits for completions instead of deferring or rejecting the
// op. One op larger than the watermark is still admitted whenever the
// lane is below it, so it runs rather than deadlocking. Errors, including
// compile failures, resolve through the handle.
func (e *Engine) RunAsync(b Backend, op Op, root int, bytes int64, opts Options) *Handle[Result] {
	st := e.st.Load() // pin the topology snapshot at submission time
	h, _ := submitAsync(e.qos.scheduler(e.Metrics()), e.timeline(), b, op,
		laneSub{class: BulkGradient, bytes: bytes, wait: true},
		func(hook core.ReplayHook, rec *obs.SpanRecorder) (Result, bool, error) {
			return e.runObserved(st, b, op, root, bytes, opts, hook, rec)
		})
	return h
}

// ConfigureQoS tunes the cluster engine's lane scheduler before first use
// (see Engine.ConfigureQoS).
func (e *ClusterEngine) ConfigureQoS(cfg QoSConfig) { e.qos.configure(cfg) }

// RunAsync submits one cluster collective nonblockingly and returns its
// handle; semantics match Engine.RunAsync (BulkGradient lane, waiting
// backpressure, state pinned at submission so in-flight work completes on
// its snapshot while later submissions see the post-fault cluster).
func (e *ClusterEngine) RunAsync(b Backend, op Op, root int, bytes int64, opts Options) *Handle[ClusterResult] {
	st := e.st.Load()
	h, _ := submitAsync(e.qos.scheduler(e.Metrics()), e.timeline(), b, op,
		laneSub{class: BulkGradient, bytes: bytes, wait: true},
		func(hook core.ReplayHook, rec *obs.SpanRecorder) (ClusterResult, bool, error) {
			return e.runObserved(st, b, op, root, bytes, opts, nil, hook, rec)
		})
	return h
}
