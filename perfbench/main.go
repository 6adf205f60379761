// Command perfbench is the repository benchmark: two seeded workloads run
// through the public blink API, each reporting host-time and simulated-time
// end-to-end metrics, and a traced mode that times the benchmark's own
// calls into each layer (topology, core, simgpu, ring, collective).
//
// Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload train-steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"blink"
	"blink/internal/collective"
)

// setupReps is how many times a run builds the workload from cold caches;
// setup_s is the median.
const setupReps = 3

// phaseBlocks is how many equal stretches of wall time a timed phase is
// cut into; throughputs and latency percentiles are the median over the
// blocks, so a transient stall of the shared host moves them less than a
// whole-phase figure would.
const phaseBlocks = 20

// warmupSeconds is how long the workload runs after setup, checked but
// not measured, before the first timed phase.
const warmupSeconds = 1

// outDir holds the traces, per-cell tables and temporary plan stores a run
// leaves behind, relative to the working directory (the repository root).
const outDir = ".bench_build/perfbench"

// simCell is one (allocation, op, size) cell with the simulated seconds of
// both backends.
type simCell struct {
	Alloc         string  `json:"alloc"`
	Op            string  `json:"op"`
	Root          int     `json:"root"`
	Bytes         int64   `json:"bytes"`
	BlinkSeconds  float64 `json:"blink_s"`
	NCCLSeconds   float64 `json:"nccl_s"`
	BlinkStrategy string  `json:"blink_strategy"`
	NCCLStrategy  string  `json:"nccl_strategy"`
}

// cellsOf lists the cells of per-cell (Blink, NCCL) results sorted by
// allocation, op, root and size.
func cellsOf(results map[cellKey][2]blink.Result) []simCell {
	out := make([]simCell, 0, len(results))
	for k, v := range results {
		out = append(out, simCell{Alloc: k.alloc, Op: k.op, Root: k.root, Bytes: k.bytes,
			BlinkSeconds: v[0].Seconds, NCCLSeconds: v[1].Seconds,
			BlinkStrategy: v[0].Strategy, NCCLStrategy: v[1].Strategy})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Alloc != b.Alloc {
			return a.Alloc < b.Alloc
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Root != b.Root {
			return a.Root < b.Root
		}
		return a.Bytes < b.Bytes
	})
	return out
}

func (c simCell) blinkGBs() float64 { return float64(c.Bytes) / c.BlinkSeconds / 1e9 }
func (c simCell) ncclGBs() float64  { return float64(c.Bytes) / c.NCCLSeconds / 1e9 }

// workload is one seeded traffic mix.
type workload interface {
	// setup builds every communicator from cold caches and compiles every
	// plan the timed phase uses; each call starts afresh.
	setup() error
	// run drives the timed phase until ph.deadline.
	run(ph *phase) error
	// layers times the benchmark's own calls into each layer over the
	// workload's cells and checks them against the timed phase.
	layers(lp *layerPass) error
	// cells are the (allocation, op, size) cells behind the sim metrics.
	cells() ([]simCell, error)
	// cacheStats sums the plan-cache counters of every cache in use.
	cacheStats() collective.CacheStats
	// inputHash fingerprints the generated input sequence.
	inputHash() string
	close()
}

// block accumulates one stretch of a timed phase in fixed-size memory.
type block struct {
	ops   int
	bytes float64
	last  float64 // busy seconds at the block's last successful completion
	op    hist    // operation latencies
	lc    hist    // latency-critical latencies
}

// phase accumulates one timed phase. Its blocks are allocated before the
// phase starts, so recording never grows the heap.
type phase struct {
	start, deadline time.Time
	blockLen        time.Duration
	tr              *tracer

	attempted, failed int
	blocks            []block
	paused            time.Duration // spent checking results
	lookups           uint64        // dispatches issued: one plan-cache lookup each
	failures          []string
	layer             map[string]float64

	wall        float64
	allocBytes  uint64
	heapInuse   uint64
	cacheBefore collective.CacheStats
	cacheAfter  collective.CacheStats
}

// newPhase prepares a phase of the given length cut into blocks.
func newPhase(seconds float64, tr *tracer, blocks int) *phase {
	return &phase{
		tr:       tr,
		blockLen: time.Duration(seconds * float64(time.Second) / float64(blocks)),
		blocks:   make([]block, blocks),
		layer:    map[string]float64{},
	}
}

// cur is the block of the current moment; an operation that ends after
// the deadline counts in the last block.
func (ph *phase) cur() *block {
	return &ph.blocks[min(int(time.Since(ph.start)/ph.blockLen), len(ph.blocks)-1)]
}

// op and lc record the latency of one operation and of one
// latency-critical operation.
func (ph *phase) op(ms float64) { ph.cur().op.add(ms) }
func (ph *phase) lc(ms float64) { ph.cur().lc.add(ms) }

// done records one finished operation that moved payload bytes; err
// marks it failed.
func (ph *phase) done(payload float64, err error) {
	ph.attempted++
	if err != nil {
		ph.failed++
		if len(ph.failures) < 20 {
			ph.failures = append(ph.failures, err.Error())
		}
		return
	}
	b := ph.cur()
	b.ops++
	b.bytes += payload
	b.last = (time.Since(ph.start) - ph.paused).Seconds()
}

// blockQuantile is the median over groups of consecutive blocks of each
// group's q-quantile of the latencies sel picks: the typical tail of the
// phase, which a burst of host contention inside one group barely moves.
// It cuts as many groups, up to one per block, as leave at least ten
// samples beyond the quantile in each; with fewer samples it is the
// quantile of the whole phase.
func (ph *phase) blockQuantile(sel func(*block) *hist, q float64) float64 {
	var n uint64
	for i := range ph.blocks {
		n += sel(&ph.blocks[i]).n
	}
	groups := max(1, min(len(ph.blocks), int(float64(n)*(1-q)/10)))
	var qs []float64
	for g := 0; g < groups; g++ {
		var h hist
		for i := g * len(ph.blocks) / groups; i < (g+1)*len(ph.blocks)/groups; i++ {
			h.merge(sel(&ph.blocks[i]))
		}
		if h.n > 0 {
			qs = append(qs, h.quantile(q))
		}
	}
	return median(qs)
}

func opHist(b *block) *hist { return &b.op }
func lcHist(b *block) *hist { return &b.lc }

// blockRate is the median over the blocks of each block's successful
// operations (or, with bytes, their payload bytes) per busy second between
// the last completion before the block and the block's last completion.
func (ph *phase) blockRate(bytes bool) float64 {
	var rates []float64
	prevT := 0.0
	for _, b := range ph.blocks {
		if b.ops == 0 {
			continue
		}
		c := float64(b.ops)
		if bytes {
			c = b.bytes
		}
		rates = append(rates, c/(b.last-prevT))
		prevT = b.last
	}
	return median(rates)
}

// absorb adds the checked operations of another phase to ph's ledger.
func (ph *phase) absorb(o *phase) {
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.failures = append(ph.failures, o.failures...)
}

func (ph *phase) more() bool { return time.Now().Before(ph.deadline) }

// opsPerSec is completed operations per wall second over the phases, not
// counting the time spent checking results against the reference.
func opsPerSec(phs []*phase) float64 {
	var ops, secs float64
	for _, ph := range phs {
		ops += float64(ph.attempted - ph.failed)
		secs += ph.wall - ph.paused.Seconds()
	}
	return ops / secs
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "train-steady":
		return newTrainSteady(seed), nil
	case "data-verify":
		return newDataVerify(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want train-steady or data-verify)", name)
}

func main() { os.Exit(run()) }

// run runs the benchmark and returns the exit code: 0 when every check
// passed, 1 when one failed, 2 when the run could not complete.
func run() int {
	name := flag.String("workload", "", "workload: train-steady or data-verify")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	flag.Parse()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer w.close()
	var res result
	if *trace == 1 {
		res, err = runTraced(w, *name, *seed, *seconds)
	} else {
		res, err = runPlain(w, *name, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// timedPhase runs one measured phase of the given length, cut into blocks.
func timedPhase(w workload, seconds float64, blocks int, tr *tracer) (*phase, error) {
	ph := newPhase(seconds, tr, blocks)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph.cacheBefore = w.cacheStats()
	ph.start = time.Now()
	ph.deadline = ph.start.Add(time.Duration(seconds * float64(time.Second)))
	err := w.run(ph)
	ph.wall = time.Since(ph.start).Seconds()
	runtime.ReadMemStats(&m1)
	ph.cacheAfter = w.cacheStats()
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&m1)
	ph.heapInuse = m1.HeapInuse
	if err != nil {
		return nil, err
	}
	if ph.attempted == 0 {
		return nil, fmt.Errorf("timed phase completed no operation")
	}
	if err := checkCache(ph); err != nil {
		ph.failed++
		ph.failures = append(ph.failures, err.Error())
	}
	return ph, nil
}

// checkCache holds the plan-cache ledger exact over a phase: every
// dispatch is one lookup, and each lookup is a hit or a miss.
func checkCache(ph *phase) error {
	b, a := ph.cacheBefore, ph.cacheAfter
	if hits, misses := a.Hits-b.Hits, a.Misses-b.Misses; hits+misses != ph.lookups {
		return fmt.Errorf("cache ledger: hits %d + misses %d != lookups %d", hits, misses, ph.lookups)
	}
	return nil
}

func runPlain(w workload, name string, seed int64, seconds float64) (result, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		w.close()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	warm, err := timedPhase(w, warmupSeconds, 1, nil)
	if err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	ph, err := timedPhase(w, seconds, phaseBlocks, nil)
	if err != nil {
		return result{}, err
	}
	ops := float64(ph.attempted)
	m := map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {ph.blockRate(false), "1/s"},
		"op_ms_p50":       {ph.blockQuantile(opHist, 0.5), "ms"},
		"op_ms_p99":       {ph.blockQuantile(opHist, 0.99), "ms"},
		"lc_ms_p50":       {ph.blockQuantile(lcHist, 0.5), "ms"},
		"lc_ms_p99":       {ph.blockQuantile(lcHist, 0.99), "ms"},
		"verified_gbs":    {ph.blockRate(true) / 1e9, "GB/s"},
		"alloc_kb_per_op": {float64(ph.allocBytes) / ops / 1024, "KiB"},
		"live_heap_mb":    {float64(ph.heapInuse) / (1 << 20), "MiB"},
	}
	ph.absorb(warm)
	cells, err := w.cells()
	if err != nil {
		return result{}, err
	}
	var bw, speedup []float64
	for _, c := range cells {
		bw = append(bw, c.blinkGBs())
		speedup = append(speedup, c.NCCLSeconds/c.BlinkSeconds)
	}
	m["sim_busbw_gbs"] = metric{geomean(bw), "GB/s"}
	m["sim_speedup_vs_nccl"] = metric{geomean(speedup), "x"}

	res := finish(ph, m)
	fmt.Printf("perfbench %s seed=%d seconds=%g inputs=%s nproc=%d GOMAXPROCS=%d %s\n",
		name, seed, seconds, w.inputHash(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("  setup runs (s): %v\n", setups)
	printMetrics(m)
	fmt.Printf("  failed_frac    %.6g ratio (%d of %d ops)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	printCells(cells)
	for _, f := range ph.failures {
		fmt.Println("  FAIL", f)
	}
	err = writeJSON(fmt.Sprintf("%s-seed%d-run.json", name, seed), map[string]any{
		"workload": name, "seed": seed, "inputs": w.inputHash(), "setup_s": setups,
		"metrics": m, "cells": cells, "failures": ph.failures,
	})
	return res, err
}

// finish fills the result line; a failed op, a NaN or an infinite metric
// makes the run incorrect.
func finish(ph *phase, m map[string]metric) result {
	res := result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Correct = false
			ph.failures = append(ph.failures, "metric "+k+" is not finite")
			v.Value = -1
			m[k] = v
		}
	}
	return res
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-26s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func printCells(cells []simCell) {
	if len(cells) == 0 {
		return
	}
	fmt.Printf("  %-22s %-14s %5s %10s %11s %10s %8s\n", "alloc", "op", "root", "bytes", "blink_GB/s", "nccl_GB/s", "speedup")
	for _, c := range cells {
		fmt.Printf("  %-22s %-14s %5d %10d %11.2f %10.2f %8.2f\n",
			c.Alloc, c.Op, c.Root, c.Bytes, c.blinkGBs(), c.ncclGBs(), c.NCCLSeconds/c.BlinkSeconds)
	}
}

func writeJSON(file string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, file), b, 0o644)
}
