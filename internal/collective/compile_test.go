package collective

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"blink/internal/core"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

func newDGX1Engine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(topology.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// Concurrent cold dispatches across roots and ops must be race-free
// (exercised under `make race`) and resolve every root to the same packing
// a sequential engine compiles.
func TestConcurrentColdDispatchesAcrossRoots(t *testing.T) {
	seq := newDGX1Engine(t)
	conc := newDGX1Engine(t)

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op := Broadcast
			if i%2 == 1 {
				op = AllReduce
			}
			_, errs[i] = conc.Run(Blink, op, i%8, 8<<20, Options{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
	}
	for root := 0; root < 8; root++ {
		cp, err := conc.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := seq.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cp, sp) {
			t.Fatalf("root %d: concurrently compiled packing differs from sequential", root)
		}
	}
}

// The codegen stage must time core.CodeGen alone, not the packing that
// precedes it: one cold Blink Broadcast on a full DGX-1P spends tens of
// milliseconds enumerating trees and well under one generating the
// schedule.
func TestCodegenStageExcludesPacking(t *testing.T) {
	eng, err := NewEngine(topology.DGX1P(), []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(Blink, Broadcast, 0, 64<<20, Options{}); err != nil {
		t.Fatal(err)
	}
	stage := func(name string) float64 {
		return eng.Metrics().Histogram(`blink_compile_stage_seconds{stage="`+name+`"}`, nil).Sum()
	}
	enumerate, codegen := stage(core.StageEnumerate), stage(core.StageCodegen)
	if enumerate <= 0 || codegen <= 0 {
		t.Fatalf("stages not recorded: enumerate %v s, codegen %v s", enumerate, codegen)
	}
	if codegen >= enumerate {
		t.Fatalf("codegen %v s >= enumerate %v s: the codegen timer includes packing", codegen, enumerate)
	}
}

// Reconfigure must repair surviving packings incrementally: every root
// replans at a rate within the §3.2.1 threshold of a from-scratch engine on
// the faulted machine, and the repair counters record the outcomes.
func TestReconfigureIncrementalRepair(t *testing.T) {
	eng := newDGX1Engine(t)
	if err := eng.Prewarm(nil); err != nil {
		t.Fatal(err)
	}
	degraded, err := topology.DGX1V().WithoutLink(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reconfigure(degraded, nil); err != nil {
		t.Fatal(err)
	}
	repaired := eng.Metrics().Counter("blink_repair_incremental_total").Value()
	if repaired == 0 {
		t.Fatal("no packing was repaired incrementally")
	}

	fresh, err := NewEngine(degraded, []int{0, 1, 2, 3, 4, 5, 6, 7}, simgpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := eng.Topo().GPUGraph()
	for root := 0; root < 8; root++ {
		rp, err := eng.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.Validate(g); err != nil {
			t.Fatalf("root %d: repaired packing invalid: %v", root, err)
		}
		fp, err := fresh.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Rate < fp.Rate*(1-0.05)-1e-9 {
			t.Fatalf("root %d: repaired rate %v below 95%% of recompiled rate %v", root, rp.Rate, fp.Rate)
		}
	}
	// Post-repair dispatches must work.
	if _, err := eng.Run(Blink, AllReduce, 0, 16<<20, Options{}); err != nil {
		t.Fatal(err)
	}
}

// Repair must survive an eviction (vertex renumbering) too: surviving
// roots' packings map onto the shrunken vertex set or fall back cleanly.
func TestReconfigureRepairAcrossEviction(t *testing.T) {
	eng := newDGX1Engine(t)
	if err := eng.Prewarm(nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.ReconfigureExclude([]int{7}); err != nil {
		t.Fatal(err)
	}
	g := eng.Topo().GPUGraph()
	for root := 0; root < eng.Topo().NumGPUs; root++ {
		p, err := eng.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("root %d: packing invalid after eviction: %v", root, err)
		}
	}
	if _, err := eng.Run(Blink, AllReduce, 0, 8<<20, Options{}); err != nil {
		t.Fatal(err)
	}
}

// Satellite determinism regression: the same engine workload under
// GOMAXPROCS=1 and GOMAXPROCS=N must produce identical topology
// fingerprints, byte-identical packings and identical simulated plan
// timings.
func TestEngineDeterminismAcrossGOMAXPROCS(t *testing.T) {
	type outcome struct {
		fingerprint string
		packs       []*[8]float64
		seconds     []float64
	}
	build := func() outcome {
		eng := newDGX1Engine(t)
		if err := eng.Prewarm(nil); err != nil {
			t.Fatal(err)
		}
		var o outcome
		o.fingerprint = eng.Fingerprint()
		for root := 0; root < 8; root++ {
			p, err := eng.Packing(root)
			if err != nil {
				t.Fatal(err)
			}
			var w [8]float64
			for i, tr := range p.Trees {
				if i < len(w) {
					w[i] = tr.Weight
				}
			}
			o.packs = append(o.packs, &w)
		}
		for _, op := range []Op{Broadcast, AllReduce, AllGather} {
			res, err := eng.Run(Blink, op, 0, 8<<20, Options{})
			if err != nil {
				t.Fatal(err)
			}
			o.seconds = append(o.seconds, res.Seconds)
		}
		return o
	}
	old := runtime.GOMAXPROCS(1)
	seq := build()
	runtime.GOMAXPROCS(8)
	par := build()
	runtime.GOMAXPROCS(old)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("engine outcome differs across GOMAXPROCS:\n1: %+v\nN: %+v", seq, par)
	}
}

// Prewarmed packings must be identical to lazily compiled ones — Prewarm
// moves latency, never results.
func TestPrewarmMatchesLazyCompilation(t *testing.T) {
	warm := newDGX1Engine(t)
	if err := warm.Prewarm(nil); err != nil {
		t.Fatal(err)
	}
	lazy := newDGX1Engine(t)
	for root := 0; root < 8; root++ {
		wp, err := warm.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := lazy.Packing(root)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wp, lp) {
			t.Fatalf("root %d: prewarmed packing differs from lazy", root)
		}
	}
}
