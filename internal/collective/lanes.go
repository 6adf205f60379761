package collective

import (
	"errors"
	"sync"
	"time"

	"blink/internal/obs"
)

// Class is the QoS priority class of a submission. A production comm
// engine serves thousands of concurrent jobs whose traffic is not equally
// urgent: a synchronous gradient AllReduce on the critical path of a
// training step must never sit behind a tenant's telemetry flush. The
// zero value is BulkGradient, the default class of untagged traffic, so
// legacy submissions keep today's behavior.
type Class int

const (
	// BulkGradient is the default class: large, throughput-oriented
	// transfers (DDP gradient buckets) that tolerate queueing.
	BulkGradient Class = iota
	// LatencyCritical is the highest-priority class: small blocking
	// collectives on a step's critical path (pipeline activations,
	// parameter broadcasts at the optimizer boundary).
	LatencyCritical
	// Telemetry is the lowest class: metric flushes, checkpoints and other
	// background traffic that must eventually drain but never delay work.
	Telemetry
	// NumClasses is the number of QoS classes (and lanes).
	NumClasses = 3
)

// laneOrder lists the classes in strict dispatch priority order.
var laneOrder = [NumClasses]Class{LatencyCritical, BulkGradient, Telemetry}

// String names the class.
func (c Class) String() string {
	switch c {
	case LatencyCritical:
		return "LatencyCritical"
	case BulkGradient:
		return "BulkGradient"
	case Telemetry:
		return "Telemetry"
	default:
		return "Class(?)"
	}
}

// valid reports whether c names one of the three lanes.
func (c Class) valid() bool { return c >= 0 && c < NumClasses }

// Verdict is the admission decision for one submission, made at submit
// time (RSPP-style admit -> defer -> reject edge control): Admit runs the
// op as soon as a worker and its lane's priority allow; Defer admits it
// but signals the lane is past its low watermark, so the submitter should
// back off; Reject refuses it outright (quota exhausted, bounded lane
// queue full, or lane past its high watermark) — the op never runs and
// its handle resolves with ErrAdmissionRejected.
type Verdict int

const (
	VerdictAdmit Verdict = iota
	VerdictDefer
	VerdictReject
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmit:
		return "admit"
	case VerdictDefer:
		return "defer"
	case VerdictReject:
		return "reject"
	default:
		return "verdict(?)"
	}
}

// ErrAdmissionRejected is the sentinel wrapped by every admission
// rejection — lane overload and tenant quota exhaustion alike — so
// callers can errors.Is on one value and inspect the message for the
// reason.
var ErrAdmissionRejected = errors.New("collective: admission rejected")

// Lane defaults. A lane left at its zero LaneConfig gets these; negative
// values disable the corresponding bound entirely.
const (
	// DefaultLaneQueueCap bounds how many admitted ops may queue per lane.
	DefaultLaneQueueCap = 4096
	// DefaultLaneLowWater is the outstanding-byte level at which a lane
	// starts deferring (admitting with a back-off signal).
	DefaultLaneLowWater = 1 << 30
	// DefaultLaneHighWater is the outstanding-byte level at which a lane
	// rejects new work.
	DefaultLaneHighWater = 4 << 30
	// DefaultQoSWorkers is the number of concurrent lane dispatch workers.
	DefaultQoSWorkers = 4
	// DefaultAgingAfter is how long a queued op may wait before the
	// starvation-avoidance aging rule promotes it past strict priority.
	DefaultAgingAfter = 100 * time.Millisecond
)

// LaneConfig bounds one priority lane. Zero fields take the defaults
// above; negative values disable the bound (unbounded queue, no
// watermark).
type LaneConfig struct {
	// QueueCap is the maximum number of admitted-but-not-yet-dispatched
	// ops the lane holds; submissions beyond it are rejected.
	QueueCap int
	// LowWater is the outstanding-byte (queued + executing) level at which
	// admissions become deferrals.
	LowWater int64
	// HighWater is the outstanding-byte level at which admissions become
	// rejections. An op larger than the high watermark is still admissible
	// while the lane is below it — it then holds the lane's window alone,
	// rejecting later arrivals until it completes, so oversized payloads
	// make progress without wedging any other lane.
	HighWater int64
}

// QoSConfig tunes an engine's multi-tenant lane scheduler.
type QoSConfig struct {
	// Lanes configures each class's bounded queue and watermarks, indexed
	// by Class.
	Lanes [NumClasses]LaneConfig
	// Workers is the number of ops the scheduler executes concurrently
	// (DefaultQoSWorkers if 0).
	Workers int
	// AgingAfter is the starvation-avoidance knob: a queued op older than
	// this is dispatched ahead of strict priority (oldest first), so a
	// sustained LatencyCritical flood cannot starve the Telemetry lane
	// forever. 0 takes DefaultAgingAfter; negative disables aging (pure
	// strict priority).
	AgingAfter time.Duration
}

// normalized fills a QoSConfig's zero fields with the defaults.
func (q QoSConfig) normalized() QoSConfig {
	for i := range q.Lanes {
		ln := &q.Lanes[i]
		if ln.QueueCap == 0 {
			ln.QueueCap = DefaultLaneQueueCap
		}
		if ln.LowWater == 0 {
			ln.LowWater = DefaultLaneLowWater
		}
		if ln.HighWater == 0 {
			ln.HighWater = DefaultLaneHighWater
		}
	}
	if q.Workers <= 0 {
		q.Workers = DefaultQoSWorkers
	}
	if q.AgingAfter == 0 {
		q.AgingAfter = DefaultAgingAfter
	}
	return q
}

// laneTask is one admitted op queued on a lane.
type laneTask struct {
	bytes  int64
	tenant *Tenant
	enq    time.Time
	run    func()
}

// laneState is one priority lane: a bounded FIFO of admitted tasks plus
// the outstanding-byte accounting its watermarks act on.
type laneState struct {
	cfg LaneConfig
	// pending holds admitted tasks not yet picked by a worker, FIFO.
	pending []laneTask
	// outstanding is the lane's admitted-and-unfinished bytes (queued plus
	// executing); watermark admission reads it at submit time.
	outstanding int64
	// waiters counts untenanted submitters blocked on the lane's bounds.
	// While any wait, tenant submissions to the lane are rejected, so
	// tenants ignoring the defer signal cannot hold the room they wait for.
	waiters int

	depth    *obs.Gauge
	wait     *obs.Histogram
	verdicts [3]*obs.Counter // indexed by Verdict
}

// laneSub is one submission into the lane scheduler.
type laneSub struct {
	class  Class
	tenant *Tenant
	bytes  int64
	// wait turns the lane's defer and reject verdicts into backpressure:
	// the submitter blocks until completions bring the lane back under its
	// bounds (untenanted async traffic; tenant admission never blocks).
	wait bool
	run  func()
}

// laneScheduler is the one async runtime: three priority lanes
// (LatencyCritical > BulkGradient > Telemetry) with bounded queues and
// byte watermarks, drained by a bounded pool of ephemeral workers in
// strict priority order with an aging escape hatch. It is the
// RSPP-lane-scheduler analogue for collectives: admission control happens
// at submit time (admit/defer/reject for tenants, defer-then-wait for
// untenanted traffic), priority at dispatch time.
//
// Workers are ephemeral: spawned while there is pending work, exiting when
// every lane drains, so an idle engine holds no goroutines.
type laneScheduler struct {
	mu sync.Mutex
	// space is signaled whenever a worker finishes an op, waking waiting
	// submitters to re-check their lane's bounds.
	space   sync.Cond
	lanes   [NumClasses]laneState
	workers int
	active  int
	aging   time.Duration

	mAged *obs.Counter

	// onDispatch is a test hook observed under mu at every pick, with the
	// picked class and each lane's pending count as of the instant before
	// the pick is removed. The property suite uses it to assert dispatch
	// never inverts priority among simultaneously queued ops.
	onDispatch func(picked Class, aged bool, pending [NumClasses]int)
}

// newLaneScheduler builds a scheduler from a normalized config, binding
// its metrics into reg (nil reg yields standalone no-op metrics).
func newLaneScheduler(cfg QoSConfig, reg *obs.Registry) *laneScheduler {
	cfg = cfg.normalized()
	s := &laneScheduler{
		workers: cfg.Workers,
		aging:   cfg.AgingAfter,
		mAged:   reg.Counter("blink_lane_aged_dispatch_total"),
	}
	s.space.L = &s.mu
	for c := Class(0); c < NumClasses; c++ {
		ln := &s.lanes[c]
		ln.cfg = cfg.Lanes[c]
		ln.depth = reg.Gauge(`blink_lane_queue_depth{lane="` + c.String() + `"}`)
		ln.wait = reg.Histogram(`blink_op_wait_seconds{class="`+c.String()+`"}`, nil)
		for v := VerdictAdmit; v <= VerdictReject; v++ {
			ln.verdicts[v] = reg.Counter(
				`blink_admission_total{lane="` + c.String() + `",verdict="` + v.String() + `"}`)
		}
	}
	return s
}

// admission is the lane's verdict on one more op of bytes from tenant t
// (nil-safe), in order of severity: reject past t's quotas, at the
// bounded queue's capacity or at the high watermark; defer at the low
// watermark; admit otherwise. An op larger than a watermark is judged by
// the lane's current level alone, so it still enters whenever the lane is
// below the mark and runs instead of deadlocking.
func (ln *laneState) admission(t *Tenant, bytes int64) Verdict {
	switch {
	case !t.admitWithinQuota(bytes),
		ln.cfg.QueueCap > 0 && len(ln.pending) >= ln.cfg.QueueCap,
		ln.cfg.HighWater > 0 && ln.outstanding >= ln.cfg.HighWater:
		return VerdictReject
	case ln.cfg.LowWater > 0 && ln.outstanding >= ln.cfg.LowWater:
		return VerdictDefer
	}
	return VerdictAdmit
}

// submit runs admission for one op of a valid class and, when admitted,
// queues it on its class lane (spawning a worker if the pool has room).
// A tenant submission never blocks: its verdict is decided immediately,
// and rejections never enqueue and never run. A waiting submission blocks
// instead of being deferred or rejected until the lane admits it, and
// then counts as VerdictDefer; while it blocks, the lane rejects every
// non-waiting submission, so completions drain the lane for the waiters
// rather than making room for new tenant work.
func (s *laneScheduler) submit(sub laneSub) Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	ln := &s.lanes[sub.class]
	t := sub.tenant
	t.noteSubmitted(sub.bytes)
	v := ln.admission(t, sub.bytes)
	switch {
	case sub.wait && v != VerdictAdmit:
		ln.waiters++
		for ln.admission(t, sub.bytes) != VerdictAdmit {
			s.space.Wait()
		}
		ln.waiters--
		v = VerdictDefer
	case !sub.wait && ln.waiters > 0:
		v = VerdictReject
	}
	ln.verdicts[v].Inc()
	if v == VerdictReject {
		t.noteRejected(sub.bytes)
		return v
	}
	t.noteAdmitted(sub.bytes, v == VerdictDefer)
	ln.outstanding += sub.bytes
	ln.pending = append(ln.pending, laneTask{
		bytes: sub.bytes, tenant: t, enq: time.Now(), run: sub.run,
	})
	ln.depth.Set(int64(len(ln.pending)))
	if s.active < s.workers {
		s.active++
		go s.work()
	}
	return v
}

// pickLocked removes and returns the next task to dispatch. Strict
// priority: the highest-priority nonempty lane wins — unless aging is on
// and some lane's head has waited past the aging bound, in which case the
// oldest such head wins (oldest-first among aged heads degenerates to
// cross-lane FIFO under saturation, which is exactly the liveness
// guarantee: every queued op's wait is bounded by the work ahead of it,
// not by the arrival rate of higher classes). Caller holds mu.
func (s *laneScheduler) pickLocked(now time.Time) (laneTask, Class, bool, bool) {
	pick := Class(-1)
	if s.aging > 0 {
		for c := Class(0); c < NumClasses; c++ {
			ln := &s.lanes[c]
			if len(ln.pending) == 0 || now.Sub(ln.pending[0].enq) <= s.aging {
				continue
			}
			if pick < 0 || ln.pending[0].enq.Before(s.lanes[pick].pending[0].enq) {
				pick = c
			}
		}
	}
	aged := false
	if pick >= 0 {
		// Aged pick — but it only counts as an inversion-by-aging when a
		// strictly higher-priority lane had fresh work waiting.
		for _, c := range laneOrder {
			if c == pick {
				break
			}
			if len(s.lanes[c].pending) > 0 {
				aged = true
				break
			}
		}
	} else {
		for _, c := range laneOrder {
			if len(s.lanes[c].pending) > 0 {
				pick = c
				break
			}
		}
	}
	if pick < 0 {
		return laneTask{}, 0, false, false
	}
	if s.onDispatch != nil {
		var depths [NumClasses]int
		for c := Class(0); c < NumClasses; c++ {
			depths[c] = len(s.lanes[c].pending)
		}
		s.onDispatch(pick, aged, depths)
	}
	ln := &s.lanes[pick]
	task := ln.pending[0]
	ln.pending[0] = laneTask{} // release the popped closure
	ln.pending = ln.pending[1:]
	if len(ln.pending) == 0 {
		ln.pending = nil // release the backing array
	}
	ln.depth.Set(int64(len(ln.pending)))
	return task, pick, aged, true
}

// work is one dispatch worker: pick-run-release until every lane is
// empty, then exit. Releasing a finished op and picking the next happen
// under one hold of mu, so submitters woken by the release see the queue
// slot the pick frees as well.
func (s *laneScheduler) work() {
	s.mu.Lock()
	for {
		task, class, aged, ok := s.pickLocked(time.Now())
		if !ok {
			s.active--
			s.mu.Unlock()
			return
		}
		s.lanes[class].wait.Observe(time.Since(task.enq).Seconds())
		if aged {
			s.mAged.Inc()
		}
		s.mu.Unlock()

		task.run()

		s.mu.Lock()
		s.lanes[class].outstanding -= task.bytes
		task.tenant.noteDone(task.bytes)
		s.space.Broadcast()
	}
}

// quiesced reports whether every lane is empty and every worker has
// exited (test helper).
func (s *laneScheduler) quiesced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active != 0 {
		return false
	}
	for c := Class(0); c < NumClasses; c++ {
		if len(s.lanes[c].pending) != 0 || s.lanes[c].outstanding != 0 {
			return false
		}
	}
	return true
}

// qosRuntime is the lazily built lane scheduler an Engine or ClusterEngine
// carries: configuration applies until first use, then the scheduler is
// live, so a communicator that never goes async pays nothing.
type qosRuntime struct {
	mu    sync.Mutex
	cfg   QoSConfig
	sched *laneScheduler
}

// configure replaces the pending QoS configuration. Once async ops have
// been issued the scheduler is live and the call no longer affects it.
func (q *qosRuntime) configure(cfg QoSConfig) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cfg = cfg
}

// scheduler returns the live lane scheduler, starting it on first use.
func (q *qosRuntime) scheduler(reg *obs.Registry) *laneScheduler {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.sched == nil {
		q.sched = newLaneScheduler(q.cfg, reg)
	}
	return q.sched
}
