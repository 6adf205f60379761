package main

import (
	"fmt"
	"math/rand"
	"time"

	"blink"
	"blink/internal/collective"
	"blink/internal/dnn"
)

// trainBucketBytes is the gradient fusion threshold of every step.
const trainBucketBytes = 4 << 20

// trainBcastBytes is the DDP buffer broadcast issued at the start of a step.
const trainBcastBytes = 256 << 10

// trainSeqLen is the length of the seeded step sequence a run cycles through.
const trainSeqLen = 1 << 14

// handle is the part of Handle and ClusterHandle a step waits on.
type handle interface{ Done() <-chan struct{} }

// trainComm is one communicator of the round-robin: a single-machine Comm
// or a two-server ClusterComm, built with one backend.
type trainComm struct {
	alloc   string
	backend blink.Backend
	idx     int // index of the backend's result in a cell: 0 Blink, 1 NCCL
	comm    *blink.Comm
	cluster *blink.ClusterComm
}

func (tc *trainComm) broadcast(bytes int64) (blink.Result, error) {
	if tc.cluster != nil {
		r, err := tc.cluster.Broadcast(0, bytes)
		return r.Result, err
	}
	return tc.comm.Broadcast(0, bytes)
}

func (tc *trainComm) allReduce(bytes int64) (blink.Result, error) {
	if tc.cluster != nil {
		r, err := tc.cluster.AllReduce(bytes)
		return r.Result, err
	}
	return tc.comm.AllReduce(bytes)
}

// submit issues one bucket's AllReduceAsync and returns the handle and a
// function that collects its result.
func (tc *trainComm) submit(bytes int64) (handle, func() (blink.Result, error)) {
	if tc.cluster != nil {
		h := tc.cluster.AllReduceAsync(bytes)
		return h, func() (blink.Result, error) { r, err := h.Wait(); return r.Result, err }
	}
	h := tc.comm.AllReduceAsync(bytes)
	return h, h.Wait
}

func (tc *trainComm) cacheStats() collective.CacheStats {
	if tc.cluster != nil {
		return tc.cluster.CacheStats()
	}
	return tc.comm.CacheStats()
}

type trainStep struct{ comm, model int }

// trainSteady is closed-loop data-parallel training: one caller steps a
// seeded round-robin over fixed communicators, each built once with the
// Blink and once with the NCCL backend. After setup every dispatch is a
// memory-tier cache hit, so replay and the stream scheduler do the work.
type trainSteady struct {
	allocs  []allocSpec
	models  [][]int64 // gradient bucket sizes per model
	steps   []trainStep
	hash    string
	next    int
	comms   []*trainComm
	results map[cellKey][2]blink.Result // per cell: Blink, NCCL
}

func newTrainSteady(seed int64) *trainSteady {
	w := &trainSteady{
		allocs: []allocSpec{
			{"DGX-1V[0-7]", blink.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}},
			{"DGX-1V[1,4,5,6]", blink.DGX1V(), []int{1, 4, 5, 6}},
			{"DGX-1V[0-5]", blink.DGX1V(), []int{0, 1, 2, 3, 4, 5}},
			{"DGX-1P[0-7]", blink.DGX1P(), []int{0, 1, 2, 3, 4, 5, 6, 7}},
			{"DGX-1P[0-4]", blink.DGX1P(), []int{0, 1, 2, 3, 4}},
			{"DGX-2[0-15]", blink.DGX2(), nil},
		},
		models: [][]int64{
			dnn.GradientBuckets(dnn.ResNet50(), trainBucketBytes),
			dnn.GradientBuckets(dnn.VGG16(), trainBucketBytes),
		},
	}
	// Rounds of a seeded permutation over every (communicator, model):
	// the six allocations plus the 2-server cluster, times two backends,
	// times two models. Every round is the same work in another order.
	rng := rand.New(rand.NewSource(seed))
	ih := newInputHash()
	n := 2 * (len(w.allocs) + 1) * len(w.models)
	for len(w.steps) < trainSeqLen {
		for _, c := range rng.Perm(n) {
			s := trainStep{comm: c / len(w.models), model: c % len(w.models)}
			w.steps = append(w.steps, s)
			ih.ints(int64(s.comm), int64(s.model))
		}
	}
	w.hash = ih.sum()
	return w
}

func (w *trainSteady) inputHash() string { return w.hash }

const clusterLabel = "2xDGX-1V[0-7]"

func (w *trainSteady) setup() error {
	w.results, w.next = map[cellKey][2]blink.Result{}, 0
	for idx, b := range []blink.Backend{blink.BackendBlink, blink.BackendNCCL} {
		for _, a := range w.allocs {
			c, err := blink.NewComm(a.machine, a.devs, blink.WithBackend(b))
			if err != nil {
				return fmt.Errorf("%s: %w", a.label, err)
			}
			w.comms = append(w.comms, &trainComm{alloc: a.label, backend: b, idx: idx, comm: c})
		}
		all := []int{0, 1, 2, 3, 4, 5, 6, 7}
		cl, err := blink.NewCluster([]blink.ServerSpec{{Machine: blink.DGX1V(), Devs: all}, {Machine: blink.DGX1V(), Devs: all}}, 100)
		if err != nil {
			return err
		}
		cc, err := blink.NewClusterComm(cl, blink.WithBackend(b))
		if err != nil {
			return err
		}
		w.comms = append(w.comms, &trainComm{alloc: clusterLabel, backend: b, idx: idx, cluster: cc})
	}
	// Compile every plan the timed phase uses and record each cell.
	for _, tc := range w.comms {
		note := func(op collective.Op, bytes int64, r blink.Result) {
			k := cellKey{tc.alloc, op.String(), 0, bytes}
			v := w.results[k]
			v[tc.idx] = r
			w.results[k] = v
		}
		r, err := tc.broadcast(trainBcastBytes)
		if err != nil {
			return fmt.Errorf("%s %v broadcast: %w", tc.alloc, tc.backend, err)
		}
		note(collective.Broadcast, trainBcastBytes, r)
		for _, sizes := range w.models {
			for _, s := range sizes {
				if r, err = tc.allReduce(s); err != nil {
					return fmt.Errorf("%s %v allreduce %d: %w", tc.alloc, tc.backend, s, err)
				}
				note(collective.AllReduce, s, r)
			}
		}
	}
	return nil
}

// check compares a repeat of a cell with the cell's setup result: the
// simulated seconds must be bit-equal and the strategy unchanged.
func (w *trainSteady) check(tc *trainComm, op collective.Op, bytes int64, r blink.Result) error {
	want := w.results[cellKey{tc.alloc, op.String(), 0, bytes}][tc.idx]
	if r.Seconds != want.Seconds || r.Strategy != want.Strategy {
		return fmt.Errorf("%s %v %v %d B: got %.17g s %q, want %.17g s %q",
			tc.alloc, tc.backend, op, bytes, r.Seconds, r.Strategy, want.Seconds, want.Strategy)
	}
	return nil
}

func (w *trainSteady) run(ph *phase) error {
	tr := ph.tr
	var overlap float64
	var steps int
	for ph.more() {
		st := w.steps[w.next%len(w.steps)]
		w.next++
		tc := w.comms[st.comm]
		sizes := w.models[st.model]
		op := tr.newOp("op")
		t0 := time.Now()

		s := tr.child("collective.broadcast", op)
		br, err := tc.broadcast(trainBcastBytes)
		tr.end(s)
		ph.lc(float64(time.Since(t0)) / 1e6)
		ph.lookups++

		s = tr.child("collective.async_submit", op)
		hs := make([]handle, len(sizes))
		waits := make([]func() (blink.Result, error), len(sizes))
		sub := make([]time.Time, len(sizes))
		tAsync := time.Now()
		for j, b := range sizes {
			sub[j] = time.Now()
			hs[j], waits[j] = tc.submit(b)
		}
		tr.end(s)
		ph.lookups += uint64(len(sizes))

		s = tr.child("collective.async_wait", op)
		var latSum time.Duration
		pending := make([]int, len(hs))
		for j := range pending {
			pending[j] = j
		}
		for len(pending) > 0 {
			<-hs[pending[0]].Done()
			now := time.Now()
			keep := pending[:0]
			for _, j := range pending {
				select {
				case <-hs[j].Done():
					latSum += now.Sub(sub[j])
				default:
					keep = append(keep, j)
				}
			}
			pending = keep
		}
		tr.end(s)
		wall := time.Since(t0)
		overlap += latSum.Seconds() / time.Since(tAsync).Seconds()
		steps++
		tr.end(op)
		ph.op(float64(wall) / 1e6)

		if err == nil {
			err = w.check(tc, collective.Broadcast, trainBcastBytes, br)
		}
		payload := float64(trainBcastBytes)
		for j, b := range sizes {
			r, werr := waits[j]()
			if err == nil {
				err = werr
			}
			if err == nil {
				err = w.check(tc, collective.AllReduce, b, r)
			}
			payload += float64(b)
		}
		ph.done(payload, err)
	}
	ph.layer["async.overlap_ratio"] = overlap / float64(steps)
	return nil
}

func (w *trainSteady) cells() ([]simCell, error) { return cellsOf(w.results), nil }

func (w *trainSteady) cacheStats() collective.CacheStats {
	var s collective.CacheStats
	for _, tc := range w.comms {
		addStats(&s, tc.cacheStats())
	}
	return s
}

// addStats adds the plan-cache counters the benchmark checks.
func addStats(s *collective.CacheStats, o collective.CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
}

// layers replays every single-machine cell through the layers. The
// cluster's three-phase plans are composed inside the cluster engine and
// have no public per-phase schedule to rebuild, so its cells stay out.
func (w *trainSteady) layers(lp *layerPass) error {
	for _, a := range w.allocs {
		cells := []opCell{{collective.Broadcast, 0, trainBcastBytes}}
		seen := map[int64]bool{}
		for _, sizes := range w.models {
			for _, s := range sizes {
				if !seen[s] {
					seen[s] = true
					cells = append(cells, opCell{collective.AllReduce, 0, s})
				}
			}
		}
		if err := lp.alloc(a, cells); err != nil {
			return err
		}
	}
	return nil
}

func (w *trainSteady) close() { w.comms = nil }
