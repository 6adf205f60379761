package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"blink/internal/collective"
	"blink/internal/core"
	"blink/internal/graph"
	"blink/internal/simgpu"
	"blink/internal/topology"
)

// compileFirstPlan records the first cold dispatch at one root: the
// wall-clock to its result and the rate of the packing it was served.
type compileFirstPlan struct {
	Machine    string  `json:"machine"`
	Root       int     `json:"root"`
	ColdMillis float64 `json:"coldMillis"`
	Rate       float64 `json:"rate"`
	RateBound  float64 `json:"rateBound"`
	Optimal    bool    `json:"optimal"`
}

// compileRepair compares single-machine fault replanning via incremental
// packing repair against a full recompile of every root.
type compileRepair struct {
	Fault             string  `json:"fault"`
	Roots             int     `json:"roots"`
	FullMillis        float64 `json:"fullRecompileMillis"`
	IncrementalMillis float64 `json:"incrementalMillis"`
	Speedup           float64 `json:"speedup"`
	RepairedRoots     uint64  `json:"repairedRoots"`
	FallbackRoots     uint64  `json:"fallbackRoots"`
	MinRateRatio      float64 `json:"minRateRatio"`
	MeetsSpeedupOfTen bool    `json:"meetsSpeedupOfTen"`
}

// compileStage is one stage's latency aggregate from the engine's
// blink_compile_stage_seconds histogram family.
type compileStage struct {
	Stage        string  `json:"stage"`
	Count        uint64  `json:"count"`
	TotalSeconds float64 `json:"totalSeconds"`
}

// compileReport is the schema of BENCH_compile.json.
type compileReport struct {
	Methodology string             `json:"methodology"`
	GoVersion   string             `json:"goVersion"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	FirstPlans  []compileFirstPlan `json:"firstPlans"`
	Repair      compileRepair      `json:"repair"`
	Stages      []compileStage     `json:"stages"`
}

const compileMethodology = "firstPlans: one cold engine per full 8-GPU " +
	"DGX-1V and DGX-1P dispatches a 64 MiB Blink Broadcast at each root in " +
	"turn, so every dispatch compiles its root's packing " +
	"(enumerate→minimize→fill→codegen); cold millis is wall-clock to the " +
	"result, rate is the served packing's rate, and optimal means it equals " +
	"floor(Edmonds bound). repair: on a full DGX-1V that loses one NVLink, " +
	"incremental millis is wall-clock for Reconfigure plus re-resolving all " +
	"root packings on an engine with every root prewarmed; the full-recompile " +
	"baseline is a fresh engine on the faulted machine plus Prewarm(nil). " +
	"stages aggregates the engines' per-stage compile-latency histograms " +
	"(blink_compile_stage_seconds)."

// runCompileBench measures the staged-compile pipeline and writes the JSON
// report to out.
func runCompileBench(out io.Writer) error {
	rep := compileReport{
		Methodology: compileMethodology,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
	}
	devs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var engines []*collective.Engine

	// --- First cold plan at every root ------------------------------------
	const bytes = 64 << 20
	for _, machine := range []*topology.Topology{topology.DGX1V(), topology.DGX1P()} {
		eng, err := collective.NewEngine(machine, devs, simgpu.Config{})
		if err != nil {
			return err
		}
		engines = append(engines, eng)
		g := eng.Topo().GPUGraph()
		for root := range devs {
			t0 := time.Now()
			if _, err := eng.Run(collective.Blink, collective.Broadcast, root, bytes, collective.Options{}); err != nil {
				return err
			}
			cold := time.Since(t0)
			p, err := eng.Packing(root)
			if err != nil {
				return err
			}
			bound := math.Floor(graph.BroadcastRateUpperBound(g, root) + 1e-9)
			rep.FirstPlans = append(rep.FirstPlans, compileFirstPlan{
				Machine:    machine.Name,
				Root:       root,
				ColdMillis: float64(cold) / 1e6,
				Rate:       p.Rate,
				RateBound:  bound,
				Optimal:    math.Abs(p.Rate-bound) <= 1e-9,
			})
		}
	}

	// --- Incremental fault repair -----------------------------------------
	machine := topology.DGX1V()
	faulted, err := machine.WithoutLink(0, 3)
	if err != nil {
		return err
	}
	t0 := time.Now()
	fullEng, err := collective.NewEngine(faulted, devs, simgpu.Config{})
	if err != nil {
		return err
	}
	if err := fullEng.Prewarm(nil); err != nil {
		return err
	}
	fullDur := time.Since(t0)

	incEng, err := collective.NewEngine(machine, devs, simgpu.Config{})
	if err != nil {
		return err
	}
	if err := incEng.Prewarm(nil); err != nil {
		return err
	}
	t0 = time.Now()
	if err := incEng.Reconfigure(faulted, nil); err != nil {
		return err
	}
	for r := range devs {
		if _, err := incEng.Packing(r); err != nil {
			return err
		}
	}
	incDur := time.Since(t0)
	engines = append(engines, fullEng, incEng)

	// Quality check: repaired rate vs full-recompile rate per root.
	minRatio := 1.0
	for r := range devs {
		rp, err := incEng.Packing(r)
		if err != nil {
			return err
		}
		fpk, err := fullEng.Packing(r)
		if err != nil {
			return err
		}
		if fpk.Rate > 0 {
			if ratio := rp.Rate / fpk.Rate; ratio < minRatio {
				minRatio = ratio
			}
		}
	}

	cr := compileRepair{
		Fault:             "WithoutLink(0,3)",
		Roots:             len(devs),
		FullMillis:        float64(fullDur) / 1e6,
		IncrementalMillis: float64(incDur) / 1e6,
		RepairedRoots:     incEng.Metrics().Counter("blink_repair_incremental_total").Value(),
		FallbackRoots:     incEng.Metrics().Counter("blink_repair_fallback_total").Value(),
		MinRateRatio:      minRatio,
	}
	if incDur > 0 {
		cr.Speedup = float64(fullDur) / float64(incDur)
	}
	cr.MeetsSpeedupOfTen = cr.Speedup >= 10
	rep.Repair = cr

	// --- Per-stage latency aggregates -------------------------------------
	for _, stage := range []string{core.StageEnumerate, core.StageMinimize, core.StageFill, core.StageCodegen, core.StageRepair} {
		var count uint64
		var total float64
		for _, eng := range engines {
			h := eng.Metrics().Histogram(`blink_compile_stage_seconds{stage="`+stage+`"}`, nil)
			count += h.Count()
			total += h.Sum()
		}
		rep.Stages = append(rep.Stages, compileStage{Stage: stage, Count: count, TotalSeconds: total})
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// compileMain handles the -compile flag.
func compileMain(path string) {
	writeReport(path, "compile", runCompileBench)
}

// compileCheck re-runs the compile bench discarding output and exits
// non-zero unless the first cold dispatch at every benchmarked root served
// a packing at floor(Edmonds bound) and incremental repair beat the full
// recompile by at least 10x. Used by `make compile-smoke`.
func compileCheck() error {
	var buf jsonCapture
	if err := runCompileBench(&buf); err != nil {
		return err
	}
	var rep compileReport
	if err := json.Unmarshal(buf.data, &rep); err != nil {
		return err
	}
	worst := 0.0
	for _, fp := range rep.FirstPlans {
		if !fp.Optimal {
			return fmt.Errorf("%s root %d: first cold plan served rate %v, want floor(Edmonds bound) %v",
				fp.Machine, fp.Root, fp.Rate, fp.RateBound)
		}
		worst = math.Max(worst, fp.ColdMillis)
	}
	if !rep.Repair.MeetsSpeedupOfTen {
		return fmt.Errorf("incremental repair speedup %.2fx < 10x (full %.2fms, incremental %.2fms)",
			rep.Repair.Speedup, rep.Repair.FullMillis, rep.Repair.IncrementalMillis)
	}
	fmt.Printf("compile-smoke: %d first cold plans at floor(Edmonds bound) (slowest %.1fms), incremental repair %.1fx (>=10x), min rate ratio %.3f\n",
		len(rep.FirstPlans), worst, rep.Repair.Speedup, rep.Repair.MinRateRatio)
	return nil
}

// jsonCapture buffers writes in memory for compileCheck's self-parse.
type jsonCapture struct{ data []byte }

func (c *jsonCapture) Write(p []byte) (int, error) {
	c.data = append(c.data, p...)
	return len(p), nil
}
