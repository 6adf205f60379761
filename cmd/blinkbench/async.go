package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"blink"
	"blink/internal/collective"
	"blink/internal/dnn"
	"blink/internal/simgpu"
)

// overlapCase is one overlapped-vs-sequential training measurement.
type overlapCase struct {
	Model   string `json:"model"`
	Buckets int    `json:"buckets"`
	// BackpropMillis is the simulated backward-pass wall time each step
	// pays (calibrated to the model's warm dispatch time, so compute and
	// communication are comparable and overlap is actually contested).
	BackpropMillis float64 `json:"backpropMillis"`
	// SequentialMillis / OverlappedMillis are mean warm per-step wall
	// times: full backprop then blocking grouped dispatch, vs per-bucket
	// async launches overlapping the remaining backprop.
	SequentialMillis float64 `json:"sequentialStepMillis"`
	OverlappedMillis float64 `json:"overlappedStepMillis"`
	// Speedup is sequential/overlapped step throughput (>= 1 means the
	// async lane workers hid communication behind compute).
	Speedup float64 `json:"overlapSpeedup"`
}

// dispatchCase is one async dispatch-throughput measurement: a sliding
// window of K in-flight handles over many fixed-size AllReduces.
type dispatchCase struct {
	InFlight    int     `json:"inFlight"`
	Ops         int     `json:"ops"`
	WallSeconds float64 `json:"wallSeconds"`
	OpsPerSec   float64 `json:"opsPerSec"`
	SpeedupVs1  float64 `json:"speedupVs1"`
}

// asyncReport is the schema of BENCH_async.json.
type asyncReport struct {
	Methodology  string         `json:"methodology"`
	Machine      string         `json:"machine"`
	Ranks        int            `json:"ranks"`
	LaneWorkers  int            `json:"laneWorkers"`
	GoVersion    string         `json:"goVersion"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	Iterations   int            `json:"iterationsPerCase"`
	PayloadBytes int64          `json:"dispatchPayloadBytes"`
	Overlap      []overlapCase  `json:"overlap"`
	Dispatch     []dispatchCase `json:"dispatchThroughput"`
	// MinOverlapSpeedup summarizes the headline across models; the
	// acceptance threshold is >= 1.25x on the simulated DGX-1V.
	MinOverlapSpeedup float64 `json:"minOverlapSpeedup"`
	MeetsThreshold    bool    `json:"overlapAtLeast1_25x"`
}

const asyncMethodology = "One timing-mode engine over a full 8-GPU DGX-1V " +
	"whose AllReduceAsync calls ride the untenanted BulkGradient lane of its " +
	"lane scheduler with its default pool of laneWorkers dispatch workers. " +
	"Overlap: each workload is a synthetic DDP " +
	"gradient footprint (equal fused buckets totalling 1-3 GB, the regime " +
	"where dispatch wall time is far above the ~1 ms OS timer quantum); the " +
	"warm blocking TrainStep dispatch wall time is calibrated per workload " +
	"and used as the simulated backward-pass duration (host idle), so " +
	"compute and communication contend 1:1. The sequential step sleeps the " +
	"full backprop then issues the buckets as one blocking grouped dispatch; " +
	"the overlapped step launches each bucket's AllReduceAsync at its " +
	"gradient-ready deadline during backprop and Waits on every handle " +
	"before the optimizer step. Both are averaged over warm iterations " +
	"(plans frozen by a discarded cold step). Dispatch throughput: a sliding " +
	"window of K in-flight AllReduceAsync handles (K = 1, 4, 8) over a fixed " +
	"payload, opsPerSec = ops/wall; gains beyond 1 in flight come from " +
	"chunk-pipelined replay overlap across lane workers and submission latency " +
	"hiding, bounded by GOMAXPROCS."

// ddpWorkload builds a synthetic data-parallel gradient footprint: buckets
// equal fused buckets of bucketBytes each. Real CNNs' 1-3 ms dispatch
// times drown in OS timer quantization; these are the transformer-scale
// footprints (0.25-1.5 B fp32 parameters) where overlap is measurable.
func ddpWorkload(buckets int, bucketBytes int64) *dnn.Model {
	m := &dnn.Model{Name: fmt.Sprintf("DDP-%dx%dMB", buckets, bucketBytes>>20)}
	for i := 0; i < buckets; i++ {
		m.Layers = append(m.Layers, dnn.Layer{Name: fmt.Sprintf("bucket%d", i), Bytes: bucketBytes})
	}
	return m
}

// runAsyncBench measures overlap speedup and async dispatch throughput and
// writes the JSON report to out.
func runAsyncBench(out io.Writer) error {
	const iters = 8
	machine := blink.DGX1V()
	devs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	eng, err := collective.NewEngine(machine, devs, simgpu.Config{})
	if err != nil {
		return err
	}
	rep := asyncReport{
		Methodology: asyncMethodology,
		Machine:     machine.Name,
		Ranks:       len(devs),
		LaneWorkers: collective.DefaultQoSWorkers,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Iterations:  iters,
	}

	rep.MinOverlapSpeedup = 0
	for _, w := range []struct {
		buckets     int
		bucketBytes int64
	}{
		{4, 256 << 20}, // 1 GB of gradients, coarse fusion
		{6, 256 << 20}, // 1.5 GB
		{8, 384 << 20}, // 3 GB, DDP default-ish bucket count
	} {
		m := ddpWorkload(w.buckets, w.bucketBytes)
		bucketBytes := w.bucketBytes
		// Freeze every bucket plan, then calibrate the warm blocking
		// dispatch wall time; that becomes the simulated backprop duration.
		if _, err := dnn.TrainStep(eng, collective.Blink, m, bucketBytes); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := dnn.TrainStep(eng, collective.Blink, m, bucketBytes); err != nil {
				return err
			}
		}
		dispatch := time.Since(start) / iters
		backprop := dispatch

		seq := time.Duration(0)
		for i := 0; i < iters; i++ {
			st := time.Now()
			if _, err := dnn.SequentialTrainStep(eng, collective.Blink, m, bucketBytes, backprop); err != nil {
				return err
			}
			seq += time.Since(st)
		}
		ovl := time.Duration(0)
		for i := 0; i < iters; i++ {
			st := time.Now()
			if _, err := dnn.OverlappedTrainStep(eng, collective.Blink, m, bucketBytes, backprop); err != nil {
				return err
			}
			ovl += time.Since(st)
		}
		c := overlapCase{
			Model:            m.Name,
			Buckets:          len(dnn.GradientBuckets(m, bucketBytes)),
			BackpropMillis:   float64(backprop) / 1e6,
			SequentialMillis: float64(seq) / float64(iters) / 1e6,
			OverlappedMillis: float64(ovl) / float64(iters) / 1e6,
		}
		if c.OverlappedMillis > 0 {
			c.Speedup = c.SequentialMillis / c.OverlappedMillis
		}
		if rep.MinOverlapSpeedup == 0 || c.Speedup < rep.MinOverlapSpeedup {
			rep.MinOverlapSpeedup = c.Speedup
		}
		rep.Overlap = append(rep.Overlap, c)
	}
	rep.MeetsThreshold = rep.MinOverlapSpeedup >= 1.25

	// Dispatch throughput: K handles kept in flight over a fixed payload.
	const (
		payload  = 4 << 20
		totalOps = 64
	)
	rep.PayloadBytes = payload
	// Warm the plan once so every timed dispatch is a frozen replay.
	if _, err := eng.Run(collective.Blink, collective.AllReduce, 0, payload, collective.Options{}); err != nil {
		return err
	}
	var base float64
	for _, k := range []int{1, 4, 8} {
		start := time.Now()
		inflight := make(chan *collective.Handle[collective.Result], k)
		done := make(chan error, 1)
		go func() {
			var ferr error
			for h := range inflight {
				if _, err := h.Wait(); err != nil && ferr == nil {
					ferr = err
				}
			}
			done <- ferr
		}()
		for i := 0; i < totalOps; i++ {
			inflight <- eng.RunAsync(collective.Blink, collective.AllReduce, 0, payload, collective.Options{})
		}
		close(inflight)
		if err := <-done; err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		c := dispatchCase{InFlight: k, Ops: totalOps, WallSeconds: wall}
		if wall > 0 {
			c.OpsPerSec = float64(totalOps) / wall
		}
		if k == 1 {
			base = c.OpsPerSec
		}
		if base > 0 {
			c.SpeedupVs1 = c.OpsPerSec / base
		}
		rep.Dispatch = append(rep.Dispatch, c)
	}

	if !rep.MeetsThreshold {
		return fmt.Errorf("async: overlap speedup %.2fx below the 1.25x threshold", rep.MinOverlapSpeedup)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// asyncMain handles the -async flag.
func asyncMain(path string) {
	writeReport(path, "async", runAsyncBench)
}
