package main

import (
	"fmt"
	"math/rand"
	"time"

	"blink"
	"blink/internal/collective"
)

// dvSizes are the per-rank buffer lengths in floats. For AllGather it is
// the gathered buffer, each rank contributing its 1/ranks share, as the
// byte count of the timing-mode AllGather is.
var dvSizes = []int{16 << 10, 256 << 10}

// dvVariants is how many distinct seeded input sets each (allocation,
// size) cycles through.
const dvVariants = 2

const dvSeqLen = 4096

// dvExtraLC is how many extra copies of each latency-critical op a round
// of the sequence holds: with them 12 of its 30 ops are latency-critical.
const dvExtraLC = 5

const (
	dvAllReduce = iota
	dvAllGather
	dvReduceScatter
	dvBroadcast
	dvAllToAll
	dvKinds
)

var dvKindNames = [dvKinds]string{"AllReduceData", "AllGatherData", "ReduceScatterData", "BroadcastData", "AllToAllData"}

type dvOp struct{ alloc, kind, size, variant, root int }

// latencyCritical marks the workload's latency-critical class: the small
// gradient reductions (AllReduce and ReduceScatter share one schedule) on
// the full machine. One schedule keeps the class's latency unimodal, so its
// median does not jump between the modes of different ops.
func (o dvOp) latencyCritical() bool {
	return o.alloc == 0 && o.size == 0 && (o.kind == dvAllReduce || o.kind == dvReduceScatter)
}

// dvInputs is one seeded input set with its reference sum, both computed
// before the timed phase.
type dvInputs struct {
	in  [][]float32
	sum []float32
}

// dataVerify runs data-mode collectives and checks every result
// element-exact. Inputs are small integers, so every summation order gives
// the same float32 result. Warm data execution (Exec closures and buffer
// copies) dominates. Each op goes through a QoS tenant of its
// communicator, the latency-critical ops through a latency-critical
// tenant and the rest through a bulk-gradient one, so every dispatch
// passes admission and a lane worker; one op is outstanding at a time, so
// the lanes never queue.
type dataVerify struct {
	allocs  []allocSpec
	seq     []dvOp
	inputs  [][][]dvInputs // [alloc][size][variant]
	hash    string
	next    int
	comms   []*blink.Comm
	tenants [][2]*blink.Tenant          // per allocation: bulk-gradient, latency-critical
	results map[cellKey][2]blink.Result // timing-mode Blink and NCCL per cell
}

func newDataVerify(seed int64) *dataVerify {
	w := &dataVerify{allocs: []allocSpec{
		{"DGX-1V[0-7]", blink.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"DGX-1V[1,4,5,6]", blink.DGX1V(), []int{1, 4, 5, 6}},
	}}
	rng := rand.New(rand.NewSource(seed))
	ih := newInputHash()
	for a, spec := range w.allocs {
		ranks := len(spec.devs)
		w.inputs = append(w.inputs, nil)
		for _, n := range dvSizes {
			var vs []dvInputs
			for v := 0; v < dvVariants; v++ {
				d := dvInputs{sum: make([]float32, n)}
				for r := 0; r < ranks; r++ {
					buf := make([]float32, n)
					for i := range buf {
						buf[i] = float32(rng.Intn(257) - 128)
						d.sum[i] += buf[i]
					}
					ih.floats(buf)
					d.in = append(d.in, buf)
				}
				vs = append(vs, d)
			}
			w.inputs[a] = append(w.inputs[a], vs)
		}
	}
	// Rounds of a seeded permutation over every (allocation, kind, size)
	// plus dvExtraLC more of each latency-critical op, so any stretch of the
	// sequence has nearly the same op mix and a run holds enough
	// latency-critical samples for a 99th percentile.
	var round []dvOp
	for c := 0; c < len(w.allocs)*dvKinds*len(dvSizes); c++ {
		o := dvOp{alloc: c % len(w.allocs), kind: c / len(w.allocs) % dvKinds, size: c / len(w.allocs) / dvKinds}
		round = append(round, o)
		for i := 0; o.latencyCritical() && i < dvExtraLC; i++ {
			round = append(round, o)
		}
	}
	for len(w.seq) < dvSeqLen {
		for _, i := range rng.Perm(len(round)) {
			o := round[i]
			o.variant = rng.Intn(dvVariants)
			o.root = rng.Intn(len(w.allocs[o.alloc].devs))
			w.seq = append(w.seq, o)
			ih.ints(int64(o.alloc), int64(o.kind), int64(o.size), int64(o.variant), int64(o.root))
		}
	}
	w.hash = ih.sum()
	return w
}

func (w *dataVerify) inputHash() string { return w.hash }

// simCells lists the timing cells behind one allocation's data ops: the
// AllReduce schedule (also ReduceScatter's), AllGather over the
// concatenated buffer, Broadcast from rank 0 and AllToAll.
func (w *dataVerify) simCells(a int) []opCell {
	ranks := int64(len(w.allocs[a].devs))
	var out []opCell
	for _, n := range dvSizes {
		b := int64(n) * 4
		out = append(out,
			opCell{collective.AllReduce, 0, b},
			opCell{collective.AllGather, 0, b / ranks * ranks},
			opCell{collective.Broadcast, 0, b},
			opCell{collective.AllToAll, 0, b})
	}
	return out
}

func (w *dataVerify) setup() error {
	w.comms, w.tenants, w.next = nil, nil, 0
	w.results = map[cellKey][2]blink.Result{}
	for a, spec := range w.allocs {
		c, err := blink.NewComm(spec.machine, spec.devs, blink.WithDataMode(), blink.WithQoS(blink.QoSConfig{}))
		if err != nil {
			return err
		}
		w.comms = append(w.comms, c)
		var ts [2]*blink.Tenant
		for i, class := range []blink.Class{blink.ClassBulkGradient, blink.ClassLatencyCritical} {
			if ts[i], err = blink.NewTenant(c, blink.TenantOptions{Name: fmt.Sprintf("%s-%d", spec.label, i), Class: class}); err != nil {
				return err
			}
		}
		w.tenants = append(w.tenants, ts)
		// One call of each kind, size and root compiles every data plan.
		for kind := 0; kind < dvKinds; kind++ {
			roots := 1
			if kind == dvBroadcast {
				roots = len(spec.devs)
			}
			for s := range dvSizes {
				for r := 0; r < roots; r++ {
					o := dvOp{alloc: a, kind: kind, size: s, root: r}
					if _, err := w.call(o); err != nil {
						return fmt.Errorf("%s %s: %w", spec.label, dvKindNames[kind], err)
					}
				}
			}
		}
		var pair [2]*blink.Comm
		for i, b := range []blink.Backend{blink.BackendBlink, blink.BackendNCCL} {
			if pair[i], err = blink.NewComm(spec.machine, spec.devs, blink.WithBackend(b)); err != nil {
				return err
			}
		}
		for _, oc := range w.simCells(a) {
			var v [2]blink.Result
			for i, tc := range pair {
				if v[i], err = dispatch(tc, oc); err != nil {
					return fmt.Errorf("%s %v: %w", spec.label, oc.op, err)
				}
			}
			w.results[cellKey{spec.label, oc.op.String(), oc.root, oc.bytes}] = v
		}
	}
	return nil
}

// tenant is the tenant an op is issued through.
func (w *dataVerify) tenant(o dvOp) *blink.Tenant {
	if o.latencyCritical() {
		return w.tenants[o.alloc][1]
	}
	return w.tenants[o.alloc][0]
}

func (w *dataVerify) call(o dvOp) ([][]float32, error) {
	c := w.tenant(o)
	in := w.inputs[o.alloc][o.size][o.variant].in
	switch o.kind {
	case dvAllReduce:
		return c.AllReduceData(in)
	case dvAllGather:
		shards := make([][]float32, len(in))
		for r, buf := range in {
			shard := len(buf) / len(in)
			shards[r] = buf[r*shard : (r+1)*shard]
		}
		return c.AllGatherData(shards)
	case dvReduceScatter:
		return c.ReduceScatterData(in)
	case dvBroadcast:
		return c.BroadcastData(o.root, in[o.root])
	}
	return c.AllToAllData(in)
}

// verify compares one op's outputs element-exact with the reference.
func (w *dataVerify) verify(o dvOp, out [][]float32) error {
	d := w.inputs[o.alloc][o.size][o.variant]
	ranks, n := len(d.in), len(d.sum)
	shard := n / ranks
	if len(out) != ranks {
		return fmt.Errorf("%s: %d outputs for %d ranks", dvKindNames[o.kind], len(out), ranks)
	}
	for v, got := range out {
		var want func(i int) float32
		size := n
		switch o.kind {
		case dvAllReduce:
			want = func(i int) float32 { return d.sum[i] }
		case dvAllGather:
			size = shard * ranks
			want = func(i int) float32 { r := i / shard; return d.in[r][r*shard+i%shard] }
		case dvReduceScatter:
			size = shard
			want = func(i int) float32 { return d.sum[v*shard+i] }
		case dvBroadcast:
			want = func(i int) float32 { return d.in[o.root][i] }
		default:
			want = func(i int) float32 { return d.in[i/shard][v*shard+i%shard] }
		}
		if len(got) != size {
			return fmt.Errorf("%s %s: rank %d holds %d floats, want %d", w.allocs[o.alloc].label, dvKindNames[o.kind], v, len(got), size)
		}
		for i, x := range got {
			if x != want(i) {
				return fmt.Errorf("%s %s: rank %d element %d = %g, want %g", w.allocs[o.alloc].label, dvKindNames[o.kind], v, i, x, want(i))
			}
		}
	}
	return nil
}

// laneCounts sums the admission verdicts over every tenant.
func (w *dataVerify) laneCounts() (admitted, deferred, rejected float64) {
	for _, ts := range w.tenants {
		for _, tn := range ts {
			s := tn.Stats()
			admitted += float64(s.AdmittedOps)
			deferred += float64(s.DeferredOps)
			rejected += float64(s.RejectedOps)
		}
	}
	return admitted, deferred, rejected
}

func (w *dataVerify) run(ph *phase) error {
	tr := ph.tr
	a0, d0, r0 := w.laneCounts()
	for ph.more() {
		o := w.seq[w.next%len(w.seq)]
		w.next++
		op := tr.newOp("op")
		t0 := time.Now()
		s := tr.child("collective.data_dispatch", op)
		out, err := w.call(o)
		tr.end(s)
		tr.end(op)
		ms := float64(time.Since(t0)) / 1e6
		ph.op(ms)
		if o.latencyCritical() {
			ph.lc(ms)
		}
		ph.lookups++
		t1 := time.Now()
		if err == nil {
			err = w.verify(o, out)
		}
		ph.paused += time.Since(t1)
		d := w.inputs[o.alloc][o.size][o.variant]
		ph.done(float64(4*len(d.sum)*len(d.in)), err)
	}
	a1, d1, r1 := w.laneCounts()
	ph.layer["lanes.admitted"], ph.layer["lanes.deferred"], ph.layer["lanes.rejected"] = a1-a0, d1-d0, r1-r0
	for _, ts := range w.tenants {
		for _, tn := range ts {
			if s := tn.Stats(); s.SubmittedBytes != s.AdmittedBytes+s.RejectedBytes || s.SubmittedOps != s.AdmittedOps+s.RejectedOps {
				ph.failed++
				ph.failures = append(ph.failures, fmt.Sprintf("tenant %s ledger: %+v", s.Name, s))
			}
		}
	}
	return nil
}

func (w *dataVerify) cells() ([]simCell, error) { return cellsOf(w.results), nil }

// cacheStats covers the data-mode communicators, the only ones the timed
// phase dispatches on.
func (w *dataVerify) cacheStats() collective.CacheStats {
	var s collective.CacheStats
	for _, c := range w.comms {
		addStats(&s, c.CacheStats())
	}
	return s
}

func (w *dataVerify) layers(lp *layerPass) error {
	for a, spec := range w.allocs {
		if err := lp.alloc(spec, w.simCells(a)); err != nil {
			return err
		}
		for s, n := range dvSizes {
			oc := opCell{collective.AllReduce, 0, int64(n) * 4}
			if err := lp.dataExec(spec, oc, w.inputs[a][s][0].in); err != nil {
				return fmt.Errorf("%s data exec: %w", spec.label, err)
			}
		}
	}
	return nil
}

func (w *dataVerify) close() { w.comms, w.tenants = nil, nil }
