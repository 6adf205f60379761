// Command blinkbench regenerates the paper's tables and figures, and
// benchmarks the schedule plan cache.
//
// Usage:
//
//	blinkbench -exp all                        # every experiment, paper order
//	blinkbench -exp fig15                      # one experiment
//	blinkbench -list                           # available experiment IDs
//	blinkbench -plancache -o BENCH_planCache.json  # cold vs warm plan latency
//	blinkbench -cluster -o BENCH_cluster.json      # three-phase vs flat ring
//	blinkbench -dataconc -o BENCH_dataConcurrency.json  # data-mode caller scaling
//	blinkbench -resilience -o BENCH_resilience.json  # training across mid-run faults
//	blinkbench -async -o BENCH_async.json            # async overlap + dispatch throughput
//	blinkbench -mixed -o BENCH_mixed.json            # AllToAll / SendRecv / NeighborExchange vs flat ring
//	blinkbench -obs -o BENCH_obs.txt                 # replay-determinism gate + metrics + span dump
//	blinkbench -compile -o BENCH_compile.json        # staged compile: first cold plan per root + incremental repair
//	blinkbench -compilesmoke                         # CI gate: first cold plans optimal, incremental repair >=10x
//	blinkbench -store -o BENCH_planStore.json        # tiered plan cache: compile vs disk vs memory vs blinkd
//	blinkbench -storesmoke                           # CI gate: warm-disk cold-start >=10x vs cold compile
//	blinkbench -tenants -o BENCH_tenants.json        # multi-tenant QoS: latency-critical p99 vs FIFO at 100-1000 tenants
package main

import (
	"flag"
	"fmt"
	"os"

	"blink/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID (see -list) or 'all'")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	plancache := flag.Bool("plancache", false, "benchmark cold vs warm plan dispatch and emit JSON")
	clusterBench := flag.Bool("cluster", false, "benchmark multi-server three-phase vs flat-ring collectives and emit JSON")
	dataconc := flag.Bool("dataconc", false, "benchmark data-mode throughput vs concurrent caller count and emit JSON")
	resilience := flag.Bool("resilience", false, "benchmark training runs surviving mid-run topology faults and emit JSON")
	async := flag.Bool("async", false, "benchmark async overlap and dispatch throughput and emit JSON")
	mixed := flag.Bool("mixed", false, "benchmark AllToAll/SendRecv/NeighborExchange vs the flat-ring baseline and emit JSON")
	obsFlag := flag.Bool("obs", false, "run the seeded replay-determinism gate and emit metrics + span dump")
	compileFlag := flag.Bool("compile", false, "benchmark the staged compile pipeline (first cold plan per root, incremental repair) and emit JSON")
	compileSmoke := flag.Bool("compilesmoke", false, "gate first cold plans at floor(Edmonds bound) and incremental repair >=10x, exit non-zero on failure")
	storeFlag := flag.Bool("store", false, "benchmark cold compile vs warm-disk cold-start vs warm-memory replay vs blinkd round-trip and emit JSON")
	storeSmoke := flag.Bool("storesmoke", false, "gate warm-disk cold-start >=10x faster than cold compile, exit non-zero on failure")
	tenantsFlag := flag.Bool("tenants", false, "benchmark latency-critical p99 under 100-1000 tenant mixed load (lanes vs FIFO) and emit JSON; exits non-zero if the QoS gate fails")
	out := flag.String("o", "-", "output path for -plancache/-cluster/-dataconc/-resilience/-async/-mixed/-obs/-compile ('-' = stdout)")
	flag.Parse()

	if *plancache {
		planCacheMain(*out)
		return
	}
	if *clusterBench {
		clusterMain(*out)
		return
	}
	if *dataconc {
		dataConcMain(*out)
		return
	}
	if *resilience {
		resilienceMain(*out)
		return
	}
	if *async {
		asyncMain(*out)
		return
	}
	if *mixed {
		mixedMain(*out)
		return
	}
	if *obsFlag {
		obsMain(*out)
		return
	}
	if *compileFlag {
		compileMain(*out)
		return
	}
	if *compileSmoke {
		if err := compileCheck(); err != nil {
			fmt.Fprintf(os.Stderr, "compile-smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *storeFlag {
		storeMain(*out)
		return
	}
	if *storeSmoke {
		if err := storeCheck(); err != nil {
			fmt.Fprintf(os.Stderr, "store-smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *tenantsFlag {
		tenantsMain(*out)
		return
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		return
	}

	run := func(r experiments.Runner) {
		t, err := r.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			os.Exit(1)
		}
		t.Fprint(os.Stdout)
	}

	if *exp == "all" {
		for _, r := range experiments.All() {
			run(r)
		}
		return
	}
	r, ok := experiments.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	run(r)
}
