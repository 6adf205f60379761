// Package blink is a reproduction of "Blink: Fast and Generic Collectives
// for Distributed ML" (MLSYS 2020): a collective communication library that
// handles arbitrary GPU interconnect topologies by dynamically packing
// spanning trees instead of fixing ring schedules.
//
// Because no CUDA hardware is available, collectives execute on a
// deterministic discrete-event fabric simulator calibrated to the paper's
// measured link characteristics; schedules are the real Blink algorithms
// (multiplicative-weight-update packing, ILP tree minimization, chunked
// pipelined code generation, MIAD chunk tuning, hybrid PCIe+NVLink
// transfers, one-hop DGX-2 trees and the three-phase multi-server
// protocol), and data-mode runs move real float32 buffers so results are
// functionally verified.
//
// Quick start:
//
//	comm, err := blink.NewComm(blink.DGX1V(), []int{1, 4, 5, 6})
//	res, err := comm.AllReduce(100 << 20) // 100 MB of gradients
//	fmt.Printf("%.1f GB/s via %s\n", res.ThroughputGBs, res.Strategy)
package blink

import (
	"fmt"
	"io"

	"blink/internal/collective"
	"blink/internal/core"
	"blink/internal/obs"
	"blink/internal/plansvc"
	"blink/internal/simgpu"
	"blink/internal/topology"
	"blink/internal/trace"
)

// Machine is a hardware topology description (DGX-1P, DGX-1V, DGX-2 or a
// custom fabric).
type Machine = topology.Topology

// DGX1P returns the 8-GPU P100 machine (NVLink Gen1 hybrid cube-mesh).
func DGX1P() *Machine { return topology.DGX1P() }

// DGX1V returns the 8-GPU V100 machine (NVLink Gen2, doubled edges).
func DGX1V() *Machine { return topology.DGX1V() }

// DGX2 returns the 16-GPU NVSwitch machine.
func DGX2() *Machine { return topology.DGX2() }

// Backend selects the scheduling strategy.
type Backend = collective.Backend

// Backends.
const (
	// BackendBlink packs spanning trees (the paper's contribution).
	BackendBlink = collective.Blink
	// BackendNCCL models the ring / double-binary-tree baseline.
	BackendNCCL = collective.NCCL
)

// Result reports one collective execution.
type Result = collective.Result

// GroupResult reports one grouped collective dispatch (AllReduceMany).
type GroupResult = collective.GroupResult

// CacheStats snapshots a communicator's plan-cache counters.
type CacheStats = collective.CacheStats

// MetricsRegistry is a communicator's live metric registry: plan-cache
// attribution, compile/replay counts, replan latency, lane scheduler
// gauges and verdicts, and per-op simulated-makespan histograms. Export
// with Snapshot(), WritePrometheus or WriteJSON.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a point-in-time copy of every metric in a registry.
type MetricsSnapshot = obs.Snapshot

// Timeline is a communicator's per-op span recorder (see EnableTimeline).
type Timeline = obs.Timeline

// Span is one op's structured timeline entry: queue → dispatch →
// chunk-progress events → completion, with cache attribution and the
// simulated makespan.
type Span = obs.Span

// WriteSpanTrace renders spans as Chrome trace-event JSON (open in
// chrome://tracing or Perfetto): one swimlane per lane of the async lane
// scheduler, sync dispatches on pid 0, with queue-wait and execution as
// separate events.
func WriteSpanTrace(w io.Writer, spans []Span) error {
	return trace.FromSpans(spans).Write(w)
}

// Option customizes a Comm.
type Option func(*commConfig)

type commConfig struct {
	sim         simgpu.Config
	backend     Backend
	cacheCap    *int
	cache       *PlanCache
	storeDir    string
	serviceAddr string
	qos         *QoSConfig
}

// WithBackend selects the default backend (BackendBlink if unset).
func WithBackend(b Backend) Option { return func(c *commConfig) { c.backend = b } }

// WithSimConfig overrides the hardware timing model.
func WithSimConfig(cfg simgpu.Config) Option { return func(c *commConfig) { c.sim = cfg } }

// WithDataMode makes collectives move real float32 data (see the *Data
// methods), enabling functional verification at some simulation cost.
func WithDataMode() Option { return func(c *commConfig) { c.sim.DataMode = true } }

// WithPlanCacheCapacity bounds the number of compiled schedules the
// communicator keeps resident (default collective.DefaultPlanCacheCapacity).
// Zero or negative disables caching: every collective recompiles.
func WithPlanCacheCapacity(n int) Option {
	return func(c *commConfig) { c.cacheCap = &n }
}

// WithPlanCache shares an existing plan cache with this communicator.
// Cache keys carry the topology fingerprint, device set and timing model,
// so several communicators — even over different allocations — can pool
// one cache without ever satisfying each other incorrectly. Data-mode
// plans stay private to the communicator that compiled them (their
// schedules encode its fabric's layout); only timing plans are shared.
func WithPlanCache(pc *PlanCache) Option {
	return func(c *commConfig) { c.cache = pc }
}

// WithPlanStore persists compiled schedules under dir and warm-starts from
// it: plans are serialized to their IR on compile and regenerated (with the
// encoded header validated against the live topology) on the first dispatch
// of a later process, which skips the expensive tree packing entirely. The
// store is the middle tier of the plan cache — memory LRU, then disk, then
// compile — and is safe to share between concurrent processes: writes are
// atomic temp-file+rename, so readers never observe a torn plan. Cluster
// communicators persist their per-server tree schedules; the cross-server
// three-phase plans themselves stay memory-only.
func WithPlanStore(dir string) Option { return func(c *commConfig) { c.storeDir = dir } }

// WithPlanService consults a blinkd planning daemon (cmd/blinkd) at addr
// ("host:port" or a full URL) whenever both cache tiers miss, before
// compiling locally. Any service failure — unreachable daemon, topology
// fingerprint mismatch, malformed blob — silently falls back to the local
// compile, so the daemon removes cold-start latency but never gates
// availability. Single-machine communicators only.
func WithPlanService(addr string) Option { return func(c *commConfig) { c.serviceAddr = addr } }

// WithQoS tunes the communicator's lane scheduler — per-lane queue
// bounds, byte watermarks, worker parallelism and the starvation-avoidance
// aging knob — before the first async dispatch (see QoSConfig; zero fields
// take the documented defaults). Every *Async call rides the lanes:
// untenanted ones on the BulkGradient lane, where a full queue or a lane
// past its low watermark makes the submission wait, and tenant traffic
// (NewTenant) on its tenant's lane with non-blocking admission. Cluster
// communicators take it too. Synchronous calls run on the caller's
// goroutine and are unaffected.
func WithQoS(cfg QoSConfig) Option { return func(c *commConfig) { c.qos = &cfg } }

// PlanCache is a concurrency-safe LRU of compiled schedules, shareable
// across communicators.
type PlanCache = collective.PlanCache

// NewPlanCache returns a plan cache holding at most capacity schedules.
func NewPlanCache(capacity int) *PlanCache { return collective.NewPlanCache(capacity) }

// Comm is a communicator over an allocated set of GPUs, analogous to an
// NCCL communicator. It probes the machine's interconnect restricted to the
// allocation and generates schedules on demand (TreeGen + CodeGen); each
// compiled schedule is frozen into an LRU plan cache, so the first
// collective of a given shape pays for tree packing, minimization and
// code generation once and every later iteration replays the plan.
//
// A Comm is safe for concurrent use by multiple goroutines, in both
// timing and data mode: every data-mode call executes against its own
// per-call buffer arena (a simgpu.BufferSet), so any number of *Data calls
// may replay cached schedules simultaneously.
type Comm struct {
	eng     *collective.Engine
	backend Backend
	// tn is set on tenant views (NewTenant): every dispatch through such a
	// view rides the tenant's QoS lane and is attributed to its ledger.
	tn *collective.Tenant
}

// NewComm probes the machine for the allocated device IDs and returns a
// communicator. For the DGX-2, devs may be nil (all 16 GPUs).
func NewComm(machine *Machine, devs []int, opts ...Option) (*Comm, error) {
	cfg := commConfig{backend: BackendBlink}
	for _, o := range opts {
		o(&cfg)
	}
	eng, err := collective.NewEngine(machine, devs, cfg.sim)
	if err != nil {
		return nil, err
	}
	if cfg.cache != nil {
		eng.SetPlanCache(cfg.cache)
	} else if cfg.cacheCap != nil {
		eng.SetPlanCache(collective.NewPlanCache(*cfg.cacheCap))
	}
	if cfg.storeDir != "" {
		store, err := collective.NewPlanStore(cfg.storeDir)
		if err != nil {
			return nil, fmt.Errorf("blink: open plan store: %w", err)
		}
		eng.SetPlanStore(store)
	}
	if cfg.serviceAddr != "" {
		eng.SetPlanService(plansvc.NewClient(cfg.serviceAddr))
	}
	if cfg.qos != nil {
		eng.ConfigureQoS(*cfg.qos)
	}
	return &Comm{eng: eng, backend: cfg.backend}, nil
}

// Size returns the number of ranks in the communicator. After a
// reconfiguration that evicted GPUs, Size reflects the surviving ranks.
func (c *Comm) Size() int { return c.eng.Topo().NumGPUs }

// Devices returns the physical GPU IDs of the allocation.
func (c *Comm) Devices() []int { return append([]int(nil), c.eng.Topo().DevIDs...) }

// Backend returns the communicator's scheduling backend.
func (c *Comm) Backend() Backend { return c.backend }

// Reconfigure re-probes the communicator against a changed machine — the
// fault-adaptation entry point. Derive the post-fault fabric with the
// Machine's WithoutLink / WithLinkUnits constructors and pass it here; the
// allocation's device set is kept (for GPU evictions use
// ReconfigureExclude, which shrinks it). Collectives issued
// concurrently with Reconfigure finish on the pre-fault topology; every
// later collective compiles schedules for the new one. Plans for the dead
// topology are dropped from the plan cache so they stop pinning LRU slots.
func (c *Comm) Reconfigure(newMachine *Machine) error {
	if newMachine == nil {
		// A nil machine here is almost always a derivation whose error was
		// ignored; silently re-probing the pre-fault fabric would leave
		// the job scheduling over the dead link.
		return fmt.Errorf("blink: nil machine (did the topology derivation fail?)")
	}
	return c.eng.Reconfigure(newMachine, nil)
}

// ReconfigureExclude shrinks the allocation after the scheduler evicts
// GPUs: the listed physical device IDs leave the communicator and the
// topology is re-probed over the survivors. At least two devices must
// remain; on error the communicator is unchanged.
func (c *Comm) ReconfigureExclude(evicted ...int) error {
	return c.eng.ReconfigureExclude(evicted)
}

// run dispatches a collective through the engine. On a tenant view the
// dispatch rides the tenant's QoS lane — priority against other lanes,
// watermark admission, quota enforcement — and an overloaded lane or
// exhausted quota surfaces as an error wrapping ErrAdmissionRejected.
func (c *Comm) run(op collective.Op, root int, bytes int64, opts collective.Options) (Result, error) {
	if c.tn != nil {
		return c.runAsync(op, root, bytes, opts).Wait()
	}
	return c.eng.Run(c.backend, op, root, bytes, opts)
}

// snapRun dispatches against a pinned topology snapshot, riding the
// tenant's QoS lane on tenant views (the data-mode dispatch path).
func (c *Comm) snapRun(snap collective.Snapshot, op collective.Op, root int, bytes int64, opts collective.Options) (Result, error) {
	if c.tn != nil {
		return snap.RunTenant(c.tn, c.backend, op, root, bytes, opts)
	}
	return snap.Run(c.backend, op, root, bytes, opts)
}

// Broadcast sends bytes from rank root to all ranks.
func (c *Comm) Broadcast(root int, bytes int64) (Result, error) {
	return c.run(collective.Broadcast, root, bytes, collective.Options{})
}

// Gather collects bytes/Size() from every rank at root.
func (c *Comm) Gather(root int, bytes int64) (Result, error) {
	return c.run(collective.Gather, root, bytes, collective.Options{})
}

// AllReduce sums bytes of float32 gradients across all ranks.
func (c *Comm) AllReduce(bytes int64) (Result, error) {
	return c.run(collective.AllReduce, 0, bytes, collective.Options{})
}

// AllReduceMany issues one AllReduce per tensor size as a single grouped
// dispatch — the multi-tensor gradient buckets of one training step. Every
// distinct size compiles once; a steady-state training loop replays frozen
// plans for the whole group (see GroupResult.CacheHits).
func (c *Comm) AllReduceMany(sizes []int64) (GroupResult, error) {
	return c.eng.RunMany(c.backend, collective.AllReduce, 0, sizes, collective.Options{})
}

// CacheStats snapshots the communicator's plan-cache counters: hits are
// collectives that skipped TreeGen/minimize/CodeGen and replayed a frozen
// schedule.
func (c *Comm) CacheStats() CacheStats { return c.eng.CacheStats() }

// Metrics returns the communicator's live metric registry. Reading it is
// always safe; metrics are recorded whether or not anyone looks.
func (c *Comm) Metrics() *MetricsRegistry { return c.eng.Metrics() }

// MetricsSnapshot copies every metric's current value, for export via
// WritePrometheus (Prometheus text exposition) or WriteJSON.
func (c *Comm) MetricsSnapshot() MetricsSnapshot { return c.eng.Metrics().Snapshot() }

// EnableTimeline switches on per-op span recording (off by default — spans
// accumulate in memory for the life of the communicator) and returns the
// timeline. Idempotent; dispatches before the first call are not recorded.
func (c *Comm) EnableTimeline() *Timeline { return c.eng.EnableTimeline() }

// Timeline returns the communicator's span timeline, nil unless
// EnableTimeline was called.
func (c *Comm) Timeline() *Timeline { return c.eng.Timeline() }

// AllGather concatenates every rank's share on all ranks.
func (c *Comm) AllGather(bytes int64) (Result, error) {
	return c.run(collective.AllGather, 0, bytes, collective.Options{})
}

// ReduceScatter reduces and leaves each rank with one shard.
func (c *Comm) ReduceScatter(bytes int64) (Result, error) {
	return c.run(collective.ReduceScatter, 0, bytes, collective.Options{})
}

// Reduce sums every rank's buffer at rank root (the first half of an
// AllReduce).
func (c *Comm) Reduce(root int, bytes int64) (Result, error) {
	return c.run(collective.Reduce, root, bytes, collective.Options{})
}

// Scatter distributes a distinct bytes/Size() shard from root to every
// rank (the inverse of Gather).
func (c *Comm) Scatter(root int, bytes int64) (Result, error) {
	return c.run(collective.Scatter, root, bytes, collective.Options{})
}

// HybridBroadcast runs Blink's combined PCIe+NVLink broadcast (§3.4).
func (c *Comm) HybridBroadcast(root int, bytes int64) (Result, error) {
	res, _, err := c.eng.RunHybridBroadcast(root, bytes, collective.Options{})
	return res, err
}

// AllToAll exchanges a distinct bytes/Size() shard between every pair of
// ranks (the dispatch/combine primitive of expert-parallel MoE layers).
// Under BackendBlink each source scatters its shards over its own packed
// spanning trees; under BackendNCCL pairs move store-and-forward along the
// baseline rings.
func (c *Comm) AllToAll(bytes int64) (Result, error) {
	return c.run(collective.AllToAll, 0, bytes, collective.Options{})
}

// SendRecv forwards one bytes-sized payload stage by stage along the given
// rank chain (a pipeline-parallel activation hand-off): chain[0] sends to
// chain[1], which forwards to chain[2], and so on, each stage chunk-
// pipelined against the next. Non-adjacent stages are routed over relay
// ranks. The chain must name at least two distinct in-range ranks.
func (c *Comm) SendRecv(chain []int, bytes int64) (Result, error) {
	return c.run(collective.SendRecv, 0, bytes, collective.Options{Chain: chain})
}

// NeighborExchange sends each rank's bytes-sized payload to every rank on
// its neighbor list (a halo exchange). neighbors must hold exactly Size()
// rows; row v lists the ranks v sends to. Self-loops and duplicate targets
// are rejected.
func (c *Comm) NeighborExchange(neighbors [][]int, bytes int64) (Result, error) {
	return c.run(collective.NeighborExchange, 0, bytes, collective.Options{Neighbors: neighbors})
}

// Handle is the caller's reference to one in-flight async collective: wait
// with Wait (or select on Done), peek failures with Err, watch
// chunk-granular progress with Progress.
type Handle = collective.Handle[Result]

// ClusterHandle is the multi-server counterpart of Handle, resolving to a
// ClusterResult.
type ClusterHandle = collective.Handle[ClusterResult]

// runAsync submits a collective to the communicator's lane scheduler: on
// the BulkGradient lane, waiting out backpressure, or on a tenant view
// through the tenant's lane, where a rejected admission resolves the
// handle with ErrAdmissionRejected.
func (c *Comm) runAsync(op collective.Op, root int, bytes int64, opts collective.Options) *Handle {
	if c.tn != nil {
		h, _ := c.eng.RunAsyncTenant(c.tn, c.backend, op, root, bytes, opts)
		return h
	}
	return c.eng.RunAsync(c.backend, op, root, bytes, opts)
}

// BroadcastAsync is the nonblocking Broadcast: it submits the collective
// to the communicator's lane scheduler and returns immediately (blocking
// only while its lane is full or past its low watermark; see WithQoS). A
// training step uses the async variants to overlap gradient communication
// with backward compute and Wait on the handles before the optimizer step.
//
// The topology state is pinned at submission: work in flight completes on
// its snapshot even if the communicator is Reconfigured mid-op, while
// every later submission sees the post-fault state.
func (c *Comm) BroadcastAsync(root int, bytes int64) *Handle {
	return c.runAsync(collective.Broadcast, root, bytes, collective.Options{})
}

// AllReduceAsync is the nonblocking AllReduce (see BroadcastAsync for the
// shared async semantics).
func (c *Comm) AllReduceAsync(bytes int64) *Handle {
	return c.runAsync(collective.AllReduce, 0, bytes, collective.Options{})
}

// ReduceAsync is the nonblocking Reduce.
func (c *Comm) ReduceAsync(root int, bytes int64) *Handle {
	return c.runAsync(collective.Reduce, root, bytes, collective.Options{})
}

// GatherAsync is the nonblocking Gather.
func (c *Comm) GatherAsync(root int, bytes int64) *Handle {
	return c.runAsync(collective.Gather, root, bytes, collective.Options{})
}

// ScatterAsync is the nonblocking Scatter.
func (c *Comm) ScatterAsync(root int, bytes int64) *Handle {
	return c.runAsync(collective.Scatter, root, bytes, collective.Options{})
}

// AllGatherAsync is the nonblocking AllGather.
func (c *Comm) AllGatherAsync(bytes int64) *Handle {
	return c.runAsync(collective.AllGather, 0, bytes, collective.Options{})
}

// ReduceScatterAsync is the nonblocking ReduceScatter.
func (c *Comm) ReduceScatterAsync(bytes int64) *Handle {
	return c.runAsync(collective.ReduceScatter, 0, bytes, collective.Options{})
}

// AllToAllAsync is the nonblocking AllToAll (see BroadcastAsync for the
// shared async semantics).
func (c *Comm) AllToAllAsync(bytes int64) *Handle {
	return c.runAsync(collective.AllToAll, 0, bytes, collective.Options{})
}

// SendRecvAsync is the nonblocking SendRecv along the given rank chain.
func (c *Comm) SendRecvAsync(chain []int, bytes int64) *Handle {
	return c.runAsync(collective.SendRecv, 0, bytes,
		collective.Options{Chain: append([]int(nil), chain...)})
}

// NeighborExchangeAsync is the nonblocking NeighborExchange.
func (c *Comm) NeighborExchangeAsync(neighbors [][]int, bytes int64) *Handle {
	rows := make([][]int, len(neighbors))
	for i, r := range neighbors {
		rows[i] = append([]int(nil), r...)
	}
	return c.runAsync(collective.NeighborExchange, 0, bytes,
		collective.Options{Neighbors: rows})
}

// dataSnapshot pins the engine's topology state for one data-mode call, so
// input validation, buffer staging, the dispatch and the result reads all
// see the same rank count even if another goroutine Reconfigures the
// communicator mid-call. It returns the snapshot and its rank count.
func (c *Comm) dataSnapshot() (collective.Snapshot, int, error) {
	if err := c.requireData(); err != nil {
		return collective.Snapshot{}, 0, err
	}
	snap := c.eng.Snapshot()
	return snap, snap.Topo().NumGPUs, nil
}

// BroadcastData broadcasts root's buffer to every rank and returns each
// rank's received copy. The communicator must be created WithDataMode.
func (c *Comm) BroadcastData(root int, data []float32) ([][]float32, error) {
	snap, ranks, err := c.dataSnapshot()
	if err != nil {
		return nil, err
	}
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("blink: empty buffer")
	}
	bs := simgpu.NewBufferSet()
	bs.SetBuffer(root, core.BufData, append([]float32(nil), data...))
	if _, err := c.snapRun(snap, collective.Broadcast, root, int64(n)*4, collective.Options{DataMode: true, Buffers: bs}); err != nil {
		return nil, err
	}
	out := make([][]float32, ranks)
	for v := 0; v < ranks; v++ {
		out[v] = append([]float32(nil), bs.Buffer(v, core.BufData, n)...)
	}
	return out, nil
}

// AllReduceData sums the per-rank buffers elementwise and returns each
// rank's result. All buffers must share a length. The communicator must be
// created WithDataMode.
func (c *Comm) AllReduceData(inputs [][]float32) ([][]float32, error) {
	snap, ranks, err := c.dataSnapshot()
	if err != nil {
		return nil, err
	}
	n, err := checkShardInputs(inputs, ranks)
	if err != nil {
		return nil, err
	}
	bs := simgpu.NewBufferSet()
	for v, in := range inputs {
		bs.SetBuffer(v, core.BufData, append([]float32(nil), in...))
	}
	if _, err := c.snapRun(snap, collective.AllReduce, 0, int64(n)*4, collective.Options{DataMode: true, Buffers: bs}); err != nil {
		return nil, err
	}
	out := make([][]float32, ranks)
	for v := 0; v < ranks; v++ {
		out[v] = append([]float32(nil), bs.Buffer(v, core.BufAcc, n)...)
	}
	return out, nil
}

// GatherData collects every rank's buffer at rank root and returns the
// concatenation in rank order. All buffers must share a length. Data-mode
// Gather rides Blink's spanning trees; the NCCL baseline has no
// data-carrying gather schedule, so BackendNCCL is rejected.
func (c *Comm) GatherData(root int, inputs [][]float32) ([]float32, error) {
	snap, ranks, err := c.dataSnapshot()
	if err != nil {
		return nil, err
	}
	n, err := checkShardInputs(inputs, ranks)
	if err != nil {
		return nil, err
	}
	if c.backend != BackendBlink {
		return nil, fmt.Errorf("blink: data-mode Gather requires BackendBlink")
	}
	total := n * ranks
	bs := simgpu.NewBufferSet()
	for v, in := range inputs {
		buf := make([]float32, total)
		copy(buf[v*n:(v+1)*n], in)
		bs.SetBuffer(v, core.BufData, buf)
	}
	if _, err := c.snapRun(snap, collective.Gather, root, int64(total)*4, collective.Options{DataMode: true, Buffers: bs}); err != nil {
		return nil, err
	}
	return append([]float32(nil), bs.Buffer(root, core.BufData, total)...), nil
}

// ReduceData sums the per-rank buffers elementwise at rank root (the first
// half of an AllReduce) and returns root's result.
func (c *Comm) ReduceData(root int, inputs [][]float32) ([]float32, error) {
	snap, ranks, err := c.dataSnapshot()
	if err != nil {
		return nil, err
	}
	n, err := checkShardInputs(inputs, ranks)
	if err != nil {
		return nil, err
	}
	bs := simgpu.NewBufferSet()
	for v, in := range inputs {
		bs.SetBuffer(v, core.BufData, append([]float32(nil), in...))
	}
	if _, err := c.snapRun(snap, collective.Reduce, root, int64(n)*4, collective.Options{DataMode: true, Buffers: bs}); err != nil {
		return nil, err
	}
	return append([]float32(nil), bs.Buffer(root, core.BufAcc, n)...), nil
}

// ScatterData splits root's buffer into Size() equal shards and delivers
// shard v to rank v (the inverse of Gather). len(data) must be a multiple
// of Size(). Like GatherData, it requires BackendBlink.
func (c *Comm) ScatterData(root int, data []float32) ([][]float32, error) {
	snap, ranks, err := c.dataSnapshot()
	if err != nil {
		return nil, err
	}
	if c.backend != BackendBlink {
		return nil, fmt.Errorf("blink: data-mode Scatter requires BackendBlink")
	}
	total := len(data)
	if total == 0 || total%ranks != 0 {
		return nil, fmt.Errorf("blink: buffer length %d not a positive multiple of %d ranks", total, ranks)
	}
	n := total / ranks
	bs := simgpu.NewBufferSet()
	bs.SetBuffer(root, core.BufData, append([]float32(nil), data...))
	if _, err := c.snapRun(snap, collective.Scatter, root, int64(total)*4, collective.Options{DataMode: true, Buffers: bs}); err != nil {
		return nil, err
	}
	out := make([][]float32, ranks)
	for v := range out {
		out[v] = append([]float32(nil), bs.Buffer(v, core.BufData, total)[v*n:(v+1)*n]...)
	}
	return out, nil
}

// AllGatherData concatenates every rank's buffer on all ranks. The schedule
// is the AllReduce transfer schedule over zero-padded inputs (summing a
// buffer that is zero outside each rank's own shard concatenates exactly),
// the same identification the paper makes for timing.
func (c *Comm) AllGatherData(inputs [][]float32) ([][]float32, error) {
	snap, ranks, err := c.dataSnapshot()
	if err != nil {
		return nil, err
	}
	n, err := checkShardInputs(inputs, ranks)
	if err != nil {
		return nil, err
	}
	total := n * ranks
	bs := simgpu.NewBufferSet()
	for v, in := range inputs {
		buf := make([]float32, total)
		copy(buf[v*n:(v+1)*n], in)
		bs.SetBuffer(v, core.BufData, buf)
	}
	if _, err := c.snapRun(snap, collective.AllGather, 0, int64(total)*4, collective.Options{DataMode: true, Buffers: bs}); err != nil {
		return nil, err
	}
	out := make([][]float32, ranks)
	for v := range out {
		out[v] = append([]float32(nil), bs.Buffer(v, core.BufAcc, total)...)
	}
	return out, nil
}

// ReduceScatterData sums the per-rank buffers elementwise and leaves rank v
// with shard v of the result. Buffer lengths must be a multiple of Size().
// The data movement is the AllReduce schedule; each rank keeps only its
// shard of the reduction.
func (c *Comm) ReduceScatterData(inputs [][]float32) ([][]float32, error) {
	snap, ranks, err := c.dataSnapshot()
	if err != nil {
		return nil, err
	}
	n, err := checkShardInputs(inputs, ranks)
	if err != nil {
		return nil, err
	}
	if n%ranks != 0 {
		return nil, fmt.Errorf("blink: buffer length %d not a multiple of %d ranks", n, ranks)
	}
	bs := simgpu.NewBufferSet()
	for v, in := range inputs {
		bs.SetBuffer(v, core.BufData, append([]float32(nil), in...))
	}
	if _, err := c.snapRun(snap, collective.AllReduce, 0, int64(n)*4, collective.Options{DataMode: true, Buffers: bs}); err != nil {
		return nil, err
	}
	shard := n / ranks
	out := make([][]float32, ranks)
	for v := range out {
		out[v] = append([]float32(nil), bs.Buffer(v, core.BufAcc, n)[v*shard:(v+1)*shard]...)
	}
	return out, nil
}

// AllToAllData exchanges real data between every pair of ranks: rank v's
// input is split into Size() equal shards and shard d is delivered to rank
// d, so out[d] is the rank-order concatenation of every rank's d-th shard.
// Buffer lengths must be a positive multiple of Size(). Like GatherData, it
// requires BackendBlink (the NCCL ring baseline is timing-only).
func (c *Comm) AllToAllData(inputs [][]float32) ([][]float32, error) {
	snap, ranks, err := c.dataSnapshot()
	if err != nil {
		return nil, err
	}
	n, err := checkShardInputs(inputs, ranks)
	if err != nil {
		return nil, err
	}
	if c.backend != BackendBlink {
		return nil, fmt.Errorf("blink: data-mode AllToAll requires BackendBlink")
	}
	if n%ranks != 0 {
		return nil, fmt.Errorf("blink: buffer length %d not a multiple of %d ranks", n, ranks)
	}
	shard := n / ranks
	bs := simgpu.NewBufferSet()
	for v, in := range inputs {
		bs.SetBuffer(v, core.BufData, append([]float32(nil), in...))
	}
	if _, err := c.snapRun(snap, collective.AllToAll, 0, int64(n)*4, collective.Options{DataMode: true, Buffers: bs}); err != nil {
		return nil, err
	}
	out := make([][]float32, ranks)
	for d := range out {
		buf := make([]float32, n)
		for r := 0; r < ranks; r++ {
			copy(buf[r*shard:(r+1)*shard], bs.Buffer(d, core.ExchangeTag(r), n)[d*shard:(d+1)*shard])
		}
		out[d] = buf
	}
	return out, nil
}

// SendRecvData forwards chain[0]'s payload stage by stage along the rank
// chain and returns each chain member's received copy, in chain order
// (out[0] is the sender's own buffer). Requires BackendBlink.
func (c *Comm) SendRecvData(chain []int, data []float32) ([][]float32, error) {
	snap, _, err := c.dataSnapshot()
	if err != nil {
		return nil, err
	}
	if c.backend != BackendBlink {
		return nil, fmt.Errorf("blink: data-mode SendRecv requires BackendBlink")
	}
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("blink: empty buffer")
	}
	if len(chain) == 0 {
		return nil, fmt.Errorf("blink: empty chain")
	}
	bs := simgpu.NewBufferSet()
	bs.SetBuffer(chain[0], core.BufData, append([]float32(nil), data...))
	opts := collective.Options{DataMode: true, Buffers: bs, Chain: append([]int(nil), chain...)}
	if _, err := c.snapRun(snap, collective.SendRecv, 0, int64(n)*4, opts); err != nil {
		return nil, err
	}
	out := make([][]float32, len(chain))
	for i, v := range chain {
		out[i] = append([]float32(nil), bs.Buffer(v, core.BufData, n)...)
	}
	return out, nil
}

// NeighborExchangeData sends each rank's buffer to every rank on its
// neighbor list and returns what each rank received: out[u][v] is rank v's
// payload as received by rank u, present exactly when u is on v's list.
// All buffers must share a length. Requires BackendBlink.
func (c *Comm) NeighborExchangeData(neighbors [][]int, inputs [][]float32) ([]map[int][]float32, error) {
	snap, ranks, err := c.dataSnapshot()
	if err != nil {
		return nil, err
	}
	n, err := checkShardInputs(inputs, ranks)
	if err != nil {
		return nil, err
	}
	if c.backend != BackendBlink {
		return nil, fmt.Errorf("blink: data-mode NeighborExchange requires BackendBlink")
	}
	rows := make([][]int, len(neighbors))
	for i, r := range neighbors {
		rows[i] = append([]int(nil), r...)
	}
	bs := simgpu.NewBufferSet()
	for v, in := range inputs {
		bs.SetBuffer(v, core.BufData, append([]float32(nil), in...))
	}
	opts := collective.Options{DataMode: true, Buffers: bs, Neighbors: rows}
	if _, err := c.snapRun(snap, collective.NeighborExchange, 0, int64(n)*4, opts); err != nil {
		return nil, err
	}
	out := make([]map[int][]float32, ranks)
	for u := range out {
		out[u] = map[int][]float32{}
	}
	for v, row := range rows {
		if v >= ranks {
			break
		}
		for _, u := range row {
			out[u][v] = append([]float32(nil), bs.Buffer(u, core.ExchangeTag(v), n)...)
		}
	}
	return out, nil
}

// checkShardInputs validates a per-rank input set for the data-mode
// collectives: one equal-length non-empty buffer per rank. It returns the
// shared buffer length.
func checkShardInputs(inputs [][]float32, ranks int) (int, error) {
	if len(inputs) != ranks {
		return 0, fmt.Errorf("blink: %d inputs for %d ranks", len(inputs), ranks)
	}
	n := len(inputs[0])
	if n == 0 {
		return 0, fmt.Errorf("blink: empty buffer")
	}
	for i, in := range inputs {
		if len(in) != n {
			return 0, fmt.Errorf("blink: rank %d buffer length %d != %d", i, len(in), n)
		}
	}
	return n, nil
}

func (c *Comm) requireData() error {
	if !c.eng.Cfg.DataMode {
		return fmt.Errorf("blink: communicator not created WithDataMode")
	}
	return nil
}

// Trees returns the minimized spanning-tree packing Blink generated for
// broadcasts from root, for introspection and debugging.
func (c *Comm) Trees(root int) (*core.Packing, error) { return c.eng.Packing(root) }

// ServerSpec names one machine of a multi-server job and the GPUs the
// scheduler allocated on it.
type ServerSpec = topology.Server

// Cluster is a multi-server allocation connected by NICs through a
// non-blocking datacenter switch.
type Cluster = topology.Cluster

// NewCluster induces each server's sub-topology and assembles the NIC
// fabric. nicGbps is the per-server NIC speed in Gbit/s (e.g. 40, 100, 400).
func NewCluster(servers []ServerSpec, nicGbps float64) (*Cluster, error) {
	return topology.NewCluster(servers, nicGbps)
}

// ClusterResult reports one cluster collective execution, including the
// three-phase timing breakdown when the Blink backend ran.
type ClusterResult = collective.ClusterResult

// ClusterComm is a communicator spanning every GPU of a multi-server
// cluster — the cluster-scale analogue of Comm. Ranks are numbered
// server-major (server 0's GPUs first). With the default Blink backend,
// collectives run the paper's §3.5 three-phase protocol: per-server
// spanning-tree reduce, cross-server exchange among partition roots over
// the NICs, per-server tree broadcast. With BackendNCCL they run the flat
// cross-machine ring baseline. Either way the first dispatch of a shape
// compiles the full multi-server schedule and freezes it into the plan
// cache; every later dispatch is a warm replay.
//
// A ClusterComm is safe for concurrent use, in both timing and data mode:
// every data-mode call executes against its own per-call buffer context, so
// concurrent calls never share any execution state.
type ClusterComm struct {
	eng     *collective.ClusterEngine
	backend Backend
}

// NewClusterComm builds a cluster communicator over a multi-server
// allocation. Options are the same as NewComm's; WithDataMode enables the
// *Data variants, and WithPlanCache can pool one cache across cluster and
// single-machine communicators alike.
func NewClusterComm(cluster *Cluster, opts ...Option) (*ClusterComm, error) {
	cfg := commConfig{backend: BackendBlink}
	for _, o := range opts {
		o(&cfg)
	}
	eng, err := collective.NewClusterEngine(cluster, cfg.sim)
	if err != nil {
		return nil, err
	}
	if cfg.cache != nil {
		eng.SetPlanCache(cfg.cache)
	} else if cfg.cacheCap != nil {
		eng.SetPlanCache(collective.NewPlanCache(*cfg.cacheCap))
	}
	if cfg.storeDir != "" {
		store, err := collective.NewPlanStore(cfg.storeDir)
		if err != nil {
			return nil, fmt.Errorf("blink: open plan store: %w", err)
		}
		eng.SetPlanStore(store)
	}
	if cfg.serviceAddr != "" {
		// Cluster three-phase plans embed cross-server wiring the planning
		// service cannot reproduce; fail loudly instead of silently ignoring.
		return nil, fmt.Errorf("blink: WithPlanService is single-machine only (cluster plans are not remotely servable)")
	}
	if cfg.qos != nil {
		eng.ConfigureQoS(*cfg.qos)
	}
	return &ClusterComm{eng: eng, backend: cfg.backend}, nil
}

// Size returns the number of ranks across all servers.
func (c *ClusterComm) Size() int { return c.eng.TotalRanks() }

// ServerSizes returns the per-server GPU counts.
func (c *ClusterComm) ServerSizes() []int { return c.eng.ServerSizes() }

// Backend returns the communicator's scheduling backend.
func (c *ClusterComm) Backend() Backend { return c.backend }

// AllReduce sums bytes of float32 gradients across every rank of every
// server and reports the per-phase timing.
func (c *ClusterComm) AllReduce(bytes int64) (ClusterResult, error) {
	return c.eng.Run(c.backend, collective.AllReduce, 0, bytes, collective.Options{})
}

// AllReduceMany issues one cluster AllReduce per tensor size as a single
// grouped dispatch — one training step's gradient buckets at cluster scale.
func (c *ClusterComm) AllReduceMany(sizes []int64) (GroupResult, error) {
	return c.eng.RunMany(c.backend, collective.AllReduce, 0, sizes, collective.Options{})
}

// Broadcast sends bytes from the given global rank to every rank.
func (c *ClusterComm) Broadcast(root int, bytes int64) (ClusterResult, error) {
	return c.eng.Run(c.backend, collective.Broadcast, root, bytes, collective.Options{})
}

// AllToAll exchanges a distinct bytes/Size() shard between every pair of
// global ranks, within servers over packed spanning trees and across
// servers through the NIC fabric. Requires the Blink backend (the flat-ring
// baseline has no cluster point-to-point schedule).
func (c *ClusterComm) AllToAll(bytes int64) (ClusterResult, error) {
	return c.eng.Run(c.backend, collective.AllToAll, 0, bytes, collective.Options{})
}

// AllToAllData exchanges real data between every pair of global ranks:
// rank g's input splits into Size() shards and shard d lands on global rank
// d, so out[d] concatenates every rank's d-th shard in global rank order.
// Requires WithDataMode and the Blink backend.
func (c *ClusterComm) AllToAllData(inputs [][]float32) ([][]float32, error) {
	outs, _, err := c.eng.AllToAllData(c.backend, inputs, collective.Options{})
	return outs, err
}

// AllReduceData sums the per-rank buffers elementwise across servers and
// returns each global rank's result, moving real float32 data through
// every phase. Requires WithDataMode.
func (c *ClusterComm) AllReduceData(inputs [][]float32) ([][]float32, error) {
	outs, _, err := c.eng.AllReduceData(c.backend, inputs, collective.Options{})
	return outs, err
}

// BroadcastData sends root's buffer (a global rank) to every rank and
// returns each rank's received copy. Requires WithDataMode.
func (c *ClusterComm) BroadcastData(root int, data []float32) ([][]float32, error) {
	outs, _, err := c.eng.BroadcastData(c.backend, root, data, collective.Options{})
	return outs, err
}

// AllReduceAsync is the nonblocking cluster AllReduce: submitted to the
// communicator's BulkGradient lane, resolved through the returned handle
// (which carries the three-phase timing breakdown under the Blink
// backend). Semantics match Comm.BroadcastAsync: waiting backpressure on
// the lane's bounds, and the cluster state pinned at submission, so
// in-flight work completes on its snapshot while later submissions see a
// post-fault cluster.
func (c *ClusterComm) AllReduceAsync(bytes int64) *ClusterHandle {
	return c.eng.RunAsync(c.backend, collective.AllReduce, 0, bytes, collective.Options{})
}

// BroadcastAsync is the nonblocking cluster Broadcast from global rank
// root.
func (c *ClusterComm) BroadcastAsync(root int, bytes int64) *ClusterHandle {
	return c.eng.RunAsync(c.backend, collective.Broadcast, root, bytes, collective.Options{})
}

// ReconfigureWithoutServer shrinks the communicator after losing a whole
// server (index into the current server order): the survivors keep their
// server-major rank order and every later collective compiles three-phase
// (or flat-ring) schedules for the shrunken NIC fabric. At least two
// servers must remain; on error the communicator is unchanged. Collectives
// issued concurrently finish on the pre-loss cluster.
func (c *ClusterComm) ReconfigureWithoutServer(server int) error {
	return c.eng.RemoveServer(server)
}

// CacheStats snapshots the communicator's plan-cache counters.
func (c *ClusterComm) CacheStats() CacheStats { return c.eng.CacheStats() }

// Metrics returns the communicator's live metric registry.
func (c *ClusterComm) Metrics() *MetricsRegistry { return c.eng.Metrics() }

// MetricsSnapshot copies every metric's current value.
func (c *ClusterComm) MetricsSnapshot() MetricsSnapshot { return c.eng.Metrics().Snapshot() }

// EnableTimeline switches on per-op span recording and returns the
// timeline (see Comm.EnableTimeline).
func (c *ClusterComm) EnableTimeline() *Timeline { return c.eng.EnableTimeline() }

// Timeline returns the span timeline, nil unless EnableTimeline was called.
func (c *ClusterComm) Timeline() *Timeline { return c.eng.Timeline() }

// Engine exposes the underlying cluster engine (for benchmarks and
// training simulations that need grouped dispatch with explicit backends).
func (c *ClusterComm) Engine() *collective.ClusterEngine { return c.eng }
