package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"blink"
)

// tenantScale is one multi-tenant contention measurement at a fixed
// tenant count: the p99 completion latency of the latency-critical ops
// under the mixed load, through the FIFO baseline and through the QoS
// lanes, against the uncontended p99.
type tenantScale struct {
	Tenants int `json:"tenants"`
	// LatencyOps is how many latency-critical ops were measured (the
	// other classes' ops provide the contention, not the sample).
	LatencyOps int `json:"latencyOps"`
	MixOps     int `json:"mixOps"`
	// UncontendedP99Micros is the p99 of the same latency-critical ops on
	// an otherwise idle engine with the QoS scheduler active.
	UncontendedP99Micros float64 `json:"uncontendedP99Micros"`
	// FIFOP99Micros is the p99 when every class is issued untenanted and
	// shares the BulkGradient lane: small critical ops queue behind 32 MB
	// bulk transfers (the priority inversion).
	FIFOP99Micros float64 `json:"fifoP99Micros"`
	// QoSP99Micros is the p99 through the tenant lanes under the same mix.
	QoSP99Micros float64 `json:"qosP99Micros"`
	// FIFOOverUncontended / QoSOverUncontended are the contention
	// multipliers; the acceptance gate holds QoS within 2x.
	FIFOOverUncontended float64 `json:"fifoOverUncontendedX"`
	QoSOverUncontended  float64 `json:"qosOverUncontendedX"`
	// InversionEliminated: the lanes beat the FIFO baseline's p99.
	InversionEliminated bool `json:"inversionEliminated"`
	Within2x            bool `json:"qosWithin2xUncontended"`
}

// tenantsReport is the schema of BENCH_tenants.json.
type tenantsReport struct {
	Methodology string        `json:"methodology"`
	Machine     string        `json:"machine"`
	Ranks       int           `json:"ranks"`
	GoVersion   string        `json:"goVersion"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Scales      []tenantScale `json:"scales"`
	// MeetsThreshold: at every scale the QoS p99 stays within 2x of the
	// uncontended p99 AND at or below the FIFO baseline's p99.
	MeetsThreshold bool `json:"qosWithin2xAndBeatsFIFO"`
}

const tenantsMethodology = "One timing-mode engine over a full 8-GPU DGX-1V. " +
	"Tenant mix per scale: 10% latency-critical tenants issuing 1 MB " +
	"AllReduces, 30% bulk-gradient tenants issuing 32 MB, 60% telemetry " +
	"tenants issuing 4 MB; every tenant submits 2 ops from its own goroutine " +
	"after a common start barrier, so all classes contend simultaneously. " +
	"Plans are warmed (and frozen) before any measurement, so every op is a " +
	"cached replay and the measured latency is pure queueing plus dispatch. " +
	"Per-op latency is submit-to-handle-resolution wall time. Uncontended: " +
	"the same latency-critical ops alone on an idle engine with the QoS " +
	"scheduler active (same worker pool), p99 across all such ops. FIFO " +
	"baseline: the identical mixed load issued untenanted, so every op " +
	"rides the engine's BulkGradient lane (same worker pool, no priority) " +
	"and 1 MB critical ops queue behind 32 MB bulk transfers in arrival " +
	"order. QoS: the identical load through " +
	"per-tenant lanes with strict-priority dispatch. The gate requires, at " +
	"every scale, QoS p99 <= 2x uncontended p99 and <= the FIFO p99."

// tenantRole is one tenant's part in the mix.
type tenantRole struct {
	class blink.Class
	bytes int64
}

// tenantMix deals the 10/30/60 class split across n tenants.
func tenantMix(n int) []tenantRole {
	roles := make([]tenantRole, n)
	for i := range roles {
		switch {
		case i%10 == 0:
			roles[i] = tenantRole{blink.ClassLatencyCritical, 1 << 20}
		case i%10 < 4:
			roles[i] = tenantRole{blink.ClassBulkGradient, 32 << 20}
		default:
			roles[i] = tenantRole{blink.ClassTelemetry, 4 << 20}
		}
	}
	return roles
}

// benchQoS returns a lane config sized for the bench: watermarks and
// queue bounds out of the way so the measurement isolates scheduling
// order, not admission control.
func benchQoS() blink.QoSConfig {
	cfg := blink.QoSConfig{Workers: 8}
	for c := range cfg.Lanes {
		cfg.Lanes[c] = blink.LaneConfig{QueueCap: 1 << 16, LowWater: -1, HighWater: -1}
	}
	return cfg
}

// newBenchComm builds a fresh warmed timing-mode communicator so each
// scenario starts from identical engine state.
func newBenchComm() (*blink.Comm, error) {
	comm, err := blink.NewComm(blink.DGX1V(), []int{0, 1, 2, 3, 4, 5, 6, 7}, blink.WithQoS(benchQoS()))
	if err != nil {
		return nil, err
	}
	for _, b := range []int64{1 << 20, 4 << 20, 32 << 20} {
		if _, err := comm.AllReduce(b); err != nil {
			return nil, err
		}
	}
	return comm, nil
}

// p99 returns the 99th-percentile of the samples in microseconds.
func p99(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := (99*len(samples) + 99) / 100
	if idx > len(samples) {
		idx = len(samples)
	}
	return float64(samples[idx-1]) / float64(time.Microsecond)
}

// runMix fires the whole tenant mix simultaneously and returns the
// completion latencies of the latency-critical ops. submit abstracts the
// dispatch path: the tenant lanes or the untenanted FIFO baseline.
func runMix(roles []tenantRole, opsPer int, submit func(i int, role tenantRole) *blink.Handle) ([]time.Duration, error) {
	var (
		mu        sync.Mutex
		latencies []time.Duration
		firstErr  error
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, role := range roles {
		wg.Add(1)
		go func(i int, role tenantRole) {
			defer wg.Done()
			<-start
			for k := 0; k < opsPer; k++ {
				t0 := time.Now()
				h := submit(i, role)
				_, err := h.Wait()
				d := time.Since(t0)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if role.class == blink.ClassLatencyCritical {
					latencies = append(latencies, d)
				}
				mu.Unlock()
			}
		}(i, role)
	}
	close(start)
	wg.Wait()
	return latencies, firstErr
}

// runTenantsBench measures latency-critical p99 under mixed multi-tenant
// load at 100, 300 and 1000 tenants and writes the JSON report to out.
func runTenantsBench(out io.Writer) error {
	const opsPer = 2
	rep := tenantsReport{
		Methodology:    tenantsMethodology,
		Machine:        blink.DGX1V().Name,
		Ranks:          8,
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		MeetsThreshold: true,
	}
	for _, n := range []int{100, 300, 1000} {
		roles := tenantMix(n)
		var lcRoles []tenantRole
		for _, r := range roles {
			if r.class == blink.ClassLatencyCritical {
				lcRoles = append(lcRoles, r)
			}
		}

		// Uncontended baseline: the critical ops alone, same scheduler.
		comm, err := newBenchComm()
		if err != nil {
			return err
		}
		base, err := blink.NewTenant(comm, blink.TenantOptions{Name: "uncontended", Class: blink.ClassLatencyCritical})
		if err != nil {
			return err
		}
		uncontended, err := runMix(lcRoles, opsPer, func(_ int, role tenantRole) *blink.Handle {
			return base.AllReduceAsync(role.bytes)
		})
		if err != nil {
			return err
		}

		// FIFO baseline: the full mix, untenanted, all on the
		// BulkGradient lane.
		comm, err = newBenchComm()
		if err != nil {
			return err
		}
		fifo, err := runMix(roles, opsPer, func(_ int, role tenantRole) *blink.Handle {
			return comm.AllReduceAsync(role.bytes)
		})
		if err != nil {
			return err
		}

		// QoS: the full mix through per-tenant lanes.
		comm, err = newBenchComm()
		if err != nil {
			return err
		}
		tenants := make([]*blink.Tenant, len(roles))
		for i, role := range roles {
			tenants[i], err = blink.NewTenant(comm, blink.TenantOptions{
				Name:  fmt.Sprintf("t%d", i),
				Class: role.class,
			})
			if err != nil {
				return err
			}
		}
		qos, err := runMix(roles, opsPer, func(i int, role tenantRole) *blink.Handle {
			return tenants[i].AllReduceAsync(role.bytes)
		})
		if err != nil {
			return err
		}

		sc := tenantScale{
			Tenants:              n,
			LatencyOps:           len(qos),
			MixOps:               len(roles) * opsPer,
			UncontendedP99Micros: p99(uncontended),
			FIFOP99Micros:        p99(fifo),
			QoSP99Micros:         p99(qos),
		}
		if sc.UncontendedP99Micros > 0 {
			sc.FIFOOverUncontended = sc.FIFOP99Micros / sc.UncontendedP99Micros
			sc.QoSOverUncontended = sc.QoSP99Micros / sc.UncontendedP99Micros
		}
		sc.InversionEliminated = sc.QoSP99Micros <= sc.FIFOP99Micros
		sc.Within2x = sc.QoSOverUncontended <= 2.0
		if !sc.InversionEliminated || !sc.Within2x {
			rep.MeetsThreshold = false
		}
		rep.Scales = append(rep.Scales, sc)
	}

	if !rep.MeetsThreshold {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
		return fmt.Errorf("tenants: latency-critical p99 gate failed (want <=2x uncontended and <= FIFO at every scale)")
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// tenantsMain handles the -tenants flag.
func tenantsMain(path string) {
	writeReport(path, "tenants", runTenantsBench)
}
