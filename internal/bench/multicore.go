package bench

import (
	"fmt"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// RunMulti executes one benchmark on a multi-core cluster: the
// structure is built once (on core 0), the deterministic key stream is
// sharded round-robin across the cores, and the per-core insert
// streams run under the cluster's deterministic interleaver. The
// measured region starts at a clock barrier after setup and ends when
// the last core finishes its shard plus the final lazy drain, so
// Cycles is the parallel makespan; Counters is the merged per-core
// delta. Results are exactly reproducible for a given (config, seed).
func RunMulti(cfg RunConfig) Result {
	cores := cfg.Cores
	if cores < 1 {
		cores = 1
	}
	w := workloads.MustNew(cfg.Workload)
	obs := newObserver(cfg, cores)
	cl := slpmt.NewCluster(cores, runOptions(cfg, w, obs))
	if err := w.Setup(cl.Use(0)); err != nil {
		panic(fmt.Sprintf("bench: setup %s: %v", cfg.Workload, err))
	}
	// Seal any epoch setup left open so the measured region starts at a
	// durability boundary (setup runs on core 0 only).
	cl.Use(0).FinishEpoch()

	load := ycsb.Load{N: cfg.N, ValueSize: cfg.ValueSize, Seed: cfg.Seed}
	keys := load.Keys()
	start := cl.Stats()
	startClk := cl.SyncClocks()
	// The occupancy window always restarts at the measured region on a
	// multi-core run: the parallel phase's WPQ pressure is the scaling
	// story, so the gauges are reported whether or not a tracer is on.
	// The topology surface covers every socket's queue (and delegates
	// to the one device on single-socket machines). A traced run's
	// observer repeats the reset and the end-of-region retirement;
	// both are idempotent at the same cycle.
	cl.Plat.Topo.ResetOccupancy(startClk)
	if err := obs.begin(cl.Plat.Topo, startClk); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}

	// Shard i runs keys[i], keys[i+cores], ... — every core sees an
	// equal slice of the same deterministic stream.
	next := make([]int, cores)
	for i := range next {
		next[i] = i
	}
	cl.Interleave(func(core int, sys *slpmt.System) bool {
		j := next[core]
		if j >= len(keys) {
			return false
		}
		next[core] = j + cores
		key := keys[j]
		if err := w.Insert(sys, key, load.Value(key)); err != nil {
			panic(fmt.Sprintf("bench: %s/%s insert: %v", cfg.Scheme, cfg.Workload, err))
		}
		return next[core] < len(keys)
	})
	cl.DrainLazy()

	merged := cl.Stats()
	res := Result{
		RunConfig: cfg,
		Cycles:    cl.MaxClk() - startClk,
		Counters:  merged.Delta(start),
	}
	cl.Plat.Topo.QueueDepth(cl.MaxClk())
	res.Counters.WPQOccMaxBytes, res.Counters.WPQOccAvgBytes = cl.Plat.Topo.OccupancyStats()
	if err := obs.end(&res, cl.Plat.Topo, cl.MaxClk()); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	if cl.Sockets() > 1 {
		res.PerSocket = &SocketBreakdown{Stats: cl.SocketStats()}
	}
	if obs.prof != nil {
		// Snapshot before verification advances the clocks further. Each
		// core's total is its own clock advance since the barrier (the
		// cores finish at different clocks; Cycles is the max).
		totals := make([]uint64, cores)
		for i := range totals {
			totals[i] = cl.Plat.Core(i).Clk - startClk
		}
		res.Causes = obs.prof.Breakdown(totals)
	}
	if cfg.Verify {
		res.VerifyErr = w.Check(cl.Use(0), load.Oracle())
	}
	if c := collector.Load(); c != nil {
		c.Add(res)
	}
	return res
}
