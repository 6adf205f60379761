package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"blink"
	"blink/internal/collective"
	"blink/internal/core"
	"blink/internal/graph"
	"blink/internal/ring"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// replayReps is how many times the layer pass replays each frozen plan.
const replayReps = 5

// allocSpec is one allocation a workload runs on.
type allocSpec struct {
	label   string
	machine *topology.Topology
	devs    []int // nil on the DGX-2 (the whole machine)
}

// opCell is one (op, root, bytes) a workload issues on an allocation.
type opCell struct {
	op    collective.Op
	root  int
	bytes int64
}

type cellKey struct {
	alloc, op string
	root      int
	bytes     int64
}

// dispatch issues one timing-mode collective of a cell on a communicator.
func dispatch(c *blink.Comm, oc opCell) (blink.Result, error) {
	switch oc.op {
	case collective.Broadcast:
		return c.Broadcast(oc.root, oc.bytes)
	case collective.AllGather:
		return c.AllGather(oc.bytes)
	case collective.AllToAll:
		return c.AllToAll(oc.bytes)
	}
	return c.AllReduce(oc.bytes)
}

func keyOf(c simCell) cellKey { return cellKey{c.Alloc, c.Op, c.Root, c.Bytes} }

// layerPass times the benchmark's own calls into each layer's public
// functions. It rebuilds the schedules the communicators compiled
// (probe, pack, codegen, freeze), pushes them through the plan codec and
// store, and replays them, checking every replay against the simulated
// seconds the untraced communicator reported for the same cell.
type layerPass struct {
	tr       *tracer
	op       int
	pipe     *core.PlannerPipeline
	store    *collective.PlanStore
	want     map[cellKey]simCell
	samples  map[string][]float64
	failures []string

	packCalls              int
	depthMax               int
	trees, rateOverBound   []float64
	replayOps              int
	replayAlloc            uint64
	replays                int
	dataAlloc, dataPayload float64
}

func newLayerPass(tr *tracer, cells []simCell) (*layerPass, error) {
	dir, err := os.MkdirTemp(outDir, "layerstore-")
	if err != nil {
		return nil, err
	}
	store, err := collective.NewPlanStore(dir)
	if err != nil {
		return nil, err
	}
	lp := &layerPass{
		tr:      tr,
		pipe:    core.NewPlannerPipeline(core.PipelineOptions{}),
		store:   store,
		want:    map[cellKey]simCell{},
		samples: map[string][]float64{},
	}
	for _, c := range cells {
		lp.want[keyOf(c)] = c
	}
	lp.op = tr.newOp("layers")
	return lp, nil
}

func (lp *layerPass) close() {
	lp.tr.end(lp.op)
	os.RemoveAll(lp.store.Dir())
}

func (lp *layerPass) fail(format string, args ...any) {
	lp.failures = append(lp.failures, fmt.Sprintf(format, args...))
}

// timed runs fn inside a span and records its duration in milliseconds
// under the span's name.
func (lp *layerPass) timed(name string, fn func() error) error {
	id := lp.tr.child(name, lp.op)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	lp.tr.end(id)
	lp.samples[name] = append(lp.samples[name], float64(d)/1e6)
	return err
}

// chunkFor mirrors the communicator's chunk heuristic; the replay check
// against the communicator's own results catches any drift.
func chunkFor(bytes int64) int64 {
	c := bytes / 16
	if c > 2<<20 {
		c = 2 << 20
	}
	if c < 4 {
		c = 4
	}
	if r := c % 4; r != 0 {
		c += 4 - r
	}
	return c
}

// treeKind maps a tree-scheduled op to its IR kind and strategy suffix.
func treeKind(op collective.Op) (core.IRKind, string) {
	switch op {
	case collective.Broadcast:
		return core.IRTreeBroadcast, ""
	case collective.AllGather:
		return core.IRTreeAllGather, "+allgather"
	case collective.ReduceScatter:
		return core.IRTreeReduceScatter, "+reducescatter"
	case collective.AllToAll:
		return core.IRTreeAllToAll, "+alltoall"
	}
	return core.IRTreeAllReduce, ""
}

// fabrics is one allocation's simulated interconnect.
type fabrics struct {
	topo             *topology.Topology
	nvl, pcie, swtch *simgpu.Fabric
	oneHop           []*core.Packing
	nvlConnected     bool
}

func (f *fabrics) resolve(sel core.FabricSel) *simgpu.Fabric {
	switch sel {
	case core.FabricNVLink:
		return f.nvl
	case core.FabricPCIe:
		return f.pcie
	}
	return f.swtch
}

// probe builds the allocation's communicator and fabrics the way the
// communicator does (topology layer).
func (lp *layerPass) probe(a allocSpec, cfg simgpu.Config) (*fabrics, error) {
	err := lp.timed("topology.new_comm", func() error {
		_, err := blink.NewComm(a.machine, a.devs)
		return err
	})
	if err != nil {
		return nil, err
	}
	fs := &fabrics{}
	if a.machine.Kind == topology.KindDGX2 {
		t, _, packs, fab, err := core.NewDGX2Runtime(cfg)
		if err != nil {
			return nil, err
		}
		fs.topo, fs.swtch, fs.oneHop, fs.nvlConnected = t, fab, packs, true
		return fs, nil
	}
	ind, err := a.machine.Induce(a.devs)
	if err != nil {
		return nil, err
	}
	fs.topo = ind
	fs.nvl = simgpu.NewFabric(ind, ind.GPUGraph(), cfg)
	fs.pcie = simgpu.NewFabric(ind, ind.PCIeGraph(), cfg)
	fs.nvlConnected = ind.GPUGraph().Connected()
	return fs, nil
}

// pack runs the planner pipeline for one root (core layer).
func (lp *layerPass) pack(g *graph.Graph, root int) (*core.Packing, error) {
	id := lp.tr.child("core.pack", lp.op)
	p, st, err := lp.pipe.PackRoot(g, root)
	lp.tr.end(id)
	if err != nil {
		return nil, err
	}
	lp.packCalls++
	lp.samples["pack.enumerate"] = append(lp.samples["pack.enumerate"], st.Enumerate*1e3)
	lp.samples["pack.minimize"] = append(lp.samples["pack.minimize"], st.Minimize*1e3)
	lp.samples["pack.fill"] = append(lp.samples["pack.fill"], st.Fill*1e3)
	lp.trees = append(lp.trees, float64(len(p.Trees)))
	if p.Bound > 0 {
		lp.rateOverBound = append(lp.rateOverBound, p.Rate/p.Bound)
	}
	if d := p.MaxDepth(g); d > lp.depthMax {
		lp.depthMax = d
	}
	return p, nil
}

// blinkIR records the Blink schedule of one cell, packing every root it
// needs (packings are memoized per allocation, as the communicator does).
func (lp *layerPass) blinkIR(fs *fabrics, packs map[int]*core.Packing, c opCell, po core.PlanOptions) (*core.PlanIR, error) {
	ir := &core.PlanIR{Root: c.root, Bytes: c.bytes, Opts: po}
	if fs.swtch != nil {
		ir.Fabric = core.FabricSwitch
		switch c.op {
		case collective.Broadcast:
			ir.Kind, ir.Packings, ir.Strategy = core.IRTreeBroadcast, []*core.Packing{fs.oneHop[c.root]}, "one-hop"
		case collective.AllToAll:
			ir.Kind, ir.Packings, ir.Strategy = core.IRTreeAllToAll, fs.oneHop, "one-hop+alltoall"
		default:
			ir.Kind, ir.Packings, ir.Strategy = core.IRDGX2AllReduce, fs.oneHop, "one-hop"
		}
		return ir, nil
	}
	g, strategy := fs.topo.GPUGraph(), "trees"
	ir.Fabric = core.FabricNVLink
	if !fs.nvlConnected {
		g, strategy = fs.topo.PCIeGraph(), "pcie-trees"
		ir.Fabric = core.FabricPCIe
	}
	packAt := func(r int) (*core.Packing, error) {
		if p := packs[r]; p != nil {
			return p, nil
		}
		p, err := lp.pack(g, r)
		packs[r] = p
		return p, err
	}
	kind, suffix := treeKind(c.op)
	ir.Kind, ir.Strategy = kind, strategy+suffix
	if c.op == collective.AllToAll {
		for r := 0; r < fs.topo.NumGPUs; r++ {
			p, err := packAt(r)
			if err != nil {
				return nil, err
			}
			ir.Packings = append(ir.Packings, p)
		}
		return ir, nil
	}
	p, err := packAt(c.root)
	if err != nil {
		return nil, err
	}
	ir.Packings = []*core.Packing{p}
	return ir, nil
}

// ncclIR records the baseline schedule of one cell; the rings are found
// here to time the ring layer, and recomputed by the registered builder
// at codegen.
func (lp *layerPass) ncclIR(fs *fabrics, c opCell, po core.PlanOptions) *core.PlanIR {
	ir := &core.PlanIR{Root: c.root, Bytes: c.bytes, Opts: po, Strategy: "rings"}
	rooted := c.op == collective.Broadcast
	p2p := c.op == collective.AllToAll
	if p2p {
		n := fs.topo.NumGPUs
		perDest := c.bytes / 4 / int64(n) * 4
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					ir.Pairs = append(ir.Pairs, core.IRPair{Src: s, Dst: d, Bytes: perDest})
				}
			}
		}
	}
	if fs.swtch != nil {
		ir.Fabric, ir.Strategy = core.FabricSwitch, "ring"
		switch {
		case p2p:
			ir.Kind = core.IRSwitchP2P
		case rooted:
			ir.Kind = core.IRSwitchBroadcast
		case c.bytes < collective.DBTreeThresholdBytes:
			ir.Kind, ir.Strategy = core.IRDBTreeAllReduce, "db-tree"
		default:
			ir.Kind = core.IRSwitchAllReduce
		}
		return ir
	}
	ir.Fabric, ir.Kind = core.FabricNVLink, core.IRRingAllReduce
	switch {
	case p2p:
		ir.Kind = core.IRRingP2P
	case rooted:
		ir.Kind = core.IRRingBroadcast
	}
	if len(ring.FindRings(fs.topo.GPUGraph())) == 0 {
		ir.Fabric, ir.Strategy, ir.Kind = core.FabricPCIe, "pcie-ring", core.IRPCIeAllReduce
		switch {
		case p2p:
			ir.Kind = core.IRPCIeP2P
		case rooted:
			ir.Kind = core.IRPCIeBroadcast
		}
	}
	return ir
}

// replay replays a frozen plan replayReps times (core and simgpu layers)
// and checks each makespan against the communicator's.
func (lp *layerPass) replay(fp *core.FrozenPlan, what string, want float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < replayReps; i++ {
		var res simgpu.Result
		err := lp.timed("core.replay", func() error {
			var err error
			res, err = fp.Replay()
			return err
		})
		if err != nil {
			lp.fail("%s: replay: %v", what, err)
			return
		}
		lp.replayOps += fp.NumOps()
		if res.Makespan != want {
			lp.fail("%s: traced replay %.17g s != communicator %.17g s", what, res.Makespan, want)
		}
	}
	runtime.ReadMemStats(&m1)
	lp.replayAlloc += m1.TotalAlloc - m0.TotalAlloc
	lp.replays += replayReps
}

// alloc runs the layer pass over one allocation's cells, Blink and NCCL.
func (lp *layerPass) alloc(a allocSpec, cells []opCell) error {
	fs, err := lp.probe(a, simgpu.Config{})
	if err != nil {
		return fmt.Errorf("%s: probe: %w", a.label, err)
	}
	packs := map[int]*core.Packing{}
	for _, c := range cells {
		what := fmt.Sprintf("%s %v root %d %d B", a.label, c.op, c.root, c.bytes)
		want, ok := lp.want[cellKey{a.label, c.op.String(), c.root, c.bytes}]
		if !ok {
			return fmt.Errorf("%s: no communicator result to check against", what)
		}
		po := core.PlanOptions{ChunkBytes: chunkFor(c.bytes), NoStreamReuse: true}
		ir, err := lp.blinkIR(fs, packs, c, po)
		if err != nil {
			return fmt.Errorf("%s: pack: %w", what, err)
		}
		var fp *core.FrozenPlan
		err = lp.timed("core.codegen", func() error {
			plan, err := core.CodeGen(ir, fs.resolve(ir.Fabric))
			if err == nil {
				fp = plan.Freeze()
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: codegen: %w", what, err)
		}
		lp.samples["codegen.sim_ops"] = append(lp.samples["codegen.sim_ops"], float64(fp.NumOps()))
		if ir.Strategy != want.BlinkStrategy {
			lp.fail("%s: traced strategy %q != communicator %q", what, ir.Strategy, want.BlinkStrategy)
		}
		lp.replay(fp, what+" Blink", want.BlinkSeconds)
		if err := lp.roundTrip(fs, fp, collective.PlanKey{
			Fingerprint: fs.topo.Fingerprint(), Backend: collective.Blink, Op: c.op,
			Root: c.root, Bytes: c.bytes, ChunkBytes: po.ChunkBytes,
		}, what); err != nil {
			return err
		}

		var nfp *core.FrozenPlan
		err = lp.timed("ring.plan", func() error {
			nir := lp.ncclIR(fs, c, po)
			plan, err := core.CodeGen(nir, fs.resolve(nir.Fabric))
			if err == nil {
				nfp = plan.Freeze()
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: ring plan: %w", what, err)
		}
		lp.replay(nfp, what+" NCCL", want.NCCLSeconds)
	}
	return nil
}

// roundTrip pushes a frozen plan through the codec and the plan store and
// checks the decoded plan replays to the same makespan.
func (lp *layerPass) roundTrip(fs *fabrics, fp *core.FrozenPlan, key collective.PlanKey, what string) error {
	var blob, got []byte
	if err := lp.timed("core.encode", func() (err error) { blob, err = core.EncodePlan(fp); return }); err != nil {
		return fmt.Errorf("%s: encode: %w", what, err)
	}
	lp.samples["store.plan_kb"] = append(lp.samples["store.plan_kb"], float64(len(blob))/1024)
	if err := lp.timed("collective.store_put", func() error { return lp.store.Put(key, blob) }); err != nil {
		return fmt.Errorf("%s: store put: %w", what, err)
	}
	if err := lp.timed("collective.store_get", func() (err error) { got, err = lp.store.Get(key); return }); err != nil {
		return fmt.Errorf("%s: store get: %w", what, err)
	}
	var dfp *core.FrozenPlan
	if err := lp.timed("core.decode", func() (err error) { dfp, err = core.DecodePlan(got, fs.resolve); return }); err != nil {
		return fmt.Errorf("%s: decode: %w", what, err)
	}
	a, err := fp.Replay()
	if err != nil {
		return err
	}
	b, err := dfp.Replay()
	if err != nil {
		return err
	}
	if a.Makespan != b.Makespan {
		lp.fail("%s: decoded plan replays %.17g s, encoded %.17g s", what, b.Makespan, a.Makespan)
	}
	return nil
}

// dataExec times a data-mode replay of one cell's Blink schedule against a
// fresh buffer arena holding inputs (simgpu layer).
func (lp *layerPass) dataExec(a allocSpec, c opCell, inputs [][]float32) error {
	ind, err := a.machine.Induce(a.devs)
	if err != nil {
		return err
	}
	fs := &fabrics{topo: ind, nvlConnected: ind.GPUGraph().Connected()}
	cfg := simgpu.Config{DataMode: true}
	fs.nvl = simgpu.NewFabric(ind, ind.GPUGraph(), cfg)
	fs.pcie = simgpu.NewFabric(ind, ind.PCIeGraph(), cfg)
	ir, err := lp.blinkIR(fs, map[int]*core.Packing{}, c, core.PlanOptions{ChunkBytes: chunkFor(c.bytes), NoStreamReuse: true, DataMode: true})
	if err != nil {
		return err
	}
	plan, err := core.CodeGen(ir, fs.resolve(ir.Fabric))
	if err != nil {
		return err
	}
	fp := plan.Freeze()
	for i := 0; i < replayReps; i++ {
		bs := simgpu.NewBufferSet()
		for v, in := range inputs {
			bs.SetBuffer(v, core.BufData, append([]float32(nil), in...))
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := lp.timed("simgpu.data_exec", func() error { _, err := fp.ReplayData(bs); return err })
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		lp.dataAlloc += float64(m1.TotalAlloc - m0.TotalAlloc)
		lp.dataPayload += float64(c.bytes * int64(len(inputs)))
	}
	return nil
}

// metrics folds the pass into the per-layer metrics it owns.
func (lp *layerPass) metrics(m map[string]metric) {
	ms := func(name string) float64 { return median(lp.samples[name]) }
	m["topology.new_comm_ms"] = metric{ms("topology.new_comm"), "ms"}
	m["pack.calls"] = metric{float64(lp.packCalls), "count"}
	m["pack.enumerate_ms"] = metric{ms("pack.enumerate"), "ms"}
	m["pack.minimize_ms"] = metric{ms("pack.minimize"), "ms"}
	m["pack.fill_ms"] = metric{ms("pack.fill"), "ms"}
	m["pack.trees"] = metric{median(lp.trees), "count"}
	m["pack.depth_max"] = metric{float64(lp.depthMax), "count"}
	m["pack.rate_over_bound"] = metric{quantile(lp.rateOverBound, 0), "ratio"}
	m["codegen.ms"] = metric{ms("core.codegen"), "ms"}
	m["codegen.sim_ops"] = metric{ms("codegen.sim_ops"), "count"}
	m["ring.plan_ms"] = metric{ms("ring.plan"), "ms"}
	m["store.encode_ms"] = metric{ms("core.encode"), "ms"}
	m["store.decode_ms"] = metric{ms("core.decode"), "ms"}
	m["store.put_ms"] = metric{ms("collective.store_put"), "ms"}
	m["store.get_ms"] = metric{ms("collective.store_get"), "ms"}
	m["store.plan_kb"] = metric{ms("store.plan_kb"), "KiB"}
	m["replay.ms_p50"] = metric{ms("core.replay"), "ms"}
	var replayMs float64
	for _, d := range lp.samples["core.replay"] {
		replayMs += d
	}
	m["replay.sim_ops_per_ms"] = metric{float64(lp.replayOps) / replayMs, "1/ms"}
	m["replay.alloc_kb"] = metric{float64(lp.replayAlloc) / float64(lp.replays) / 1024, "KiB"}
	m["data.exec_ms_p50"] = metric{0, "ms"}
	m["data.alloc_over_payload"] = metric{0, "ratio"}
	if lp.dataPayload > 0 {
		m["data.exec_ms_p50"] = metric{ms("simgpu.data_exec"), "ms"}
		m["data.alloc_over_payload"] = metric{lp.dataAlloc / lp.dataPayload, "ratio"}
	}
}

// runTraced is the traced mode: four quarter-length phases over the same
// communicators, untraced, traced, traced, untraced, so a trend across the
// run cancels out of the tracing overhead; then the layer pass over the
// workload's cells.
func runTraced(w workload, name string, seed int64, seconds float64) (result, error) {
	if err := w.setup(); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	warm, err := timedPhase(w, warmupSeconds, 1, nil)
	if err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	tr := newTracer()
	var plain, traced []*phase
	for _, on := range []bool{false, true, true, false} {
		var t *tracer
		if on {
			t = tr
		}
		ph, err := timedPhase(w, seconds/4, phaseBlocks/4, t)
		if err != nil {
			return result{}, err
		}
		if on {
			traced = append(traced, ph)
		} else {
			plain = append(plain, ph)
		}
	}
	ph := traced[0]
	m := map[string]metric{}
	m["bench.unattributed_frac"] = metric{tr.unattributedFrac("op"), "ratio"}
	m["bench.trace_overhead_frac"] = metric{1 - opsPerSec(traced)/opsPerSec(plain), "ratio"}
	var lookups, hits uint64
	for _, p := range traced {
		b, a := p.cacheBefore, p.cacheAfter
		lookups += (a.Hits - b.Hits) + (a.Misses - b.Misses)
		hits += a.Hits - b.Hits
	}
	m["cache.lookups"] = metric{float64(lookups), "count"}
	m["cache.hit_ratio"] = metric{float64(hits) / float64(lookups), "ratio"}
	// Workload-owned layer metrics: counts add up over the two traced
	// phases, the others average; a workload that lacks the layer reports 0.
	for _, l := range []struct{ name, unit string }{
		{"async.overlap_ratio", "ratio"}, {"lanes.admitted", "count"}, {"lanes.deferred", "count"}, {"lanes.rejected", "count"},
	} {
		v := traced[0].layer[l.name] + traced[1].layer[l.name]
		if l.unit != "count" {
			v /= 2
		}
		m[l.name] = metric{v, l.unit}
	}
	for _, p := range append(append(traced[1:], plain...), warm) {
		ph.absorb(p)
	}

	cells, err := w.cells()
	if err != nil {
		return result{}, err
	}
	lp, err := newLayerPass(tr, cells)
	if err != nil {
		return result{}, err
	}
	err = w.layers(lp)
	lp.close()
	if err != nil {
		return result{}, fmt.Errorf("layer pass: %w", err)
	}
	lp.metrics(m)
	ph.failures = append(ph.failures, lp.failures...)
	ph.failed += len(lp.failures)

	res := finish(ph, m)
	fmt.Printf("perfbench %s seed=%d seconds=%g inputs=%s trace=1\n", name, seed, seconds, w.inputHash())
	printMetrics(m)
	for _, f := range ph.failures {
		fmt.Println("  FAIL", f)
	}
	err = writeJSON(fmt.Sprintf("%s-seed%d-trace.json", name, seed), map[string]any{
		"workload": name, "seed": seed, "inputs": w.inputHash(), "metrics": m, "spans": tr.spans,
	})
	return res, err
}
