package slpmt

import (
	"github.com/persistmem/slpmt/internal/engine"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/stats"
	"github.com/persistmem/slpmt/internal/txheap"
)

// Cluster is a multi-core simulated platform: one System per core, all
// sharing the LLC, the persistent-memory device (and its write pending
// queue), and one persistent heap — or, with Options.Sockets > 1, a
// socket-per-device topology with a per-core sharded heap (each core
// allocating from its home socket's arena). Each core runs its own
// transaction
// engine with a private log region; cross-engine conflicts are detected
// through the coherence bus — a remote store checks every other
// engine's retained-transaction signatures and forces lazy drains on a
// hit (§III-C3 applied across cores).
//
// Execution is simulated on one OS thread by deterministically
// interleaving the cores at transaction granularity (see Interleave),
// so multi-core runs are exactly reproducible.
type Cluster struct {
	// Plat is the shared platform (LLC, PM device, cores).
	Plat *machine.Machine
	// Sys holds one System per core.
	Sys []*System

	tick tickMux
}

// tickMux charges heap-operation cycles to whichever core is currently
// executing; the shared txheap sees one Ticker.
type tickMux struct{ c *machine.Core }

func (t *tickMux) Tick(n uint64) { t.c.Tick(n) }

// NewCluster builds a platform with the given core count (at least
// one). Every core runs the same scheme. New(opts) is core 0 of
// NewCluster(1, opts).
func NewCluster(cores int, opts Options) *Cluster {
	if cores < 1 {
		cores = 1
	}
	name, cfg, mc := opts.resolve()
	mc.Cores = cores
	plat := machine.New(mc)
	cl := &Cluster{Plat: plat}
	cl.tick.c = plat.Core(0)
	var heaps []*txheap.Heap
	if plat.Topo.Sockets() > 1 {
		// Sharded heap: one handle per core, allocating from the core's
		// home-socket arena with a shared global fallback. Each handle
		// charges its own core's clock, so the classic tickMux routing
		// is unnecessary on this path.
		clks := make([]txheap.Ticker, cores)
		layouts := make([]mem.Layout, cores)
		for i := 0; i < cores; i++ {
			clks[i] = plat.Core(i)
			layouts[i] = plat.Core(i).Layout
		}
		heaps = txheap.NewSharded(clks, layouts, opts.AllocCycles)
	} else {
		shared := txheap.New(&cl.tick, plat.Layout, opts.AllocCycles)
		heaps = make([]*txheap.Heap, cores)
		for i := range heaps {
			heaps[i] = shared
		}
	}
	engines := make([]*engine.Engine, cores)
	for i := 0; i < cores; i++ {
		c := plat.Core(i)
		e := engine.New(c, cfg)
		engines[i] = e
		heap := heaps[i]
		if cfg.CommitWindow > 1 {
			// Committed frees stay quarantined until their epoch's
			// commit point is durable — reuse inside the window would
			// scribble log-free stores over blocks the durable state
			// still reaches. Group closes seal every core's epoch
			// together, so releasing the shared heap's parked frees at
			// any engine's close is sound. On a sharded heap each
			// engine's close releases its own handle's frees; sibling
			// handles' frees wait for their own core's close, which
			// only lengthens the quarantine (conservative, still
			// sound).
			heap.EpochQuarantine(true)
			e.SetEpochCloseHook(heap.ReleaseEpochFrees)
		}
		cl.Sys = append(cl.Sys, &System{Eng: e, Mach: c, Heap: heap, scheme: name})
	}
	if cores == 1 {
		// No remote engine to check and no epoch to coordinate: the
		// single-core store path makes no per-store hook call.
		return cl
	}
	plat.OnRemoteStore = func(src int, line mem.Addr) {
		for i, e := range engines {
			if i != src {
				e.CoherenceStore(line)
			}
		}
	}
	if cfg.CommitWindow > 1 {
		// Transactions on different cores exchange cache lines inside a
		// commit window, so per-core epochs must become durable together:
		// the group coordinates atomic multi-core closes and numbers
		// transactions from one cluster-global sequence.
		engine.NewEpochGroup(engines)
	}
	return cl
}

// Use selects core i for direct driving (heap costs charge to it) and
// returns its System — the way single-threaded phases (setup, loading)
// run on a cluster. Interleave selects cores itself.
func (cl *Cluster) Use(i int) *System {
	cl.tick.c = cl.Sys[i].Mach
	return cl.Sys[i]
}

// Interleave runs per-core operation streams to completion under the
// deterministic scheduler: at every step the unfinished core with the
// lowest clock runs its next operation, ties broken by core ID (the
// round-robin order). stream(core, sys) must run exactly one operation
// of core's stream on sys and report whether more remain.
//
// Interleaving is at operation (transaction) granularity: a transaction
// runs to completion before another core is scheduled, so transactions
// never interleave mid-flight — cross-core interactions are coherence
// misses, WPQ contention, and signature-forced lazy drains between
// transactions. Operations on different cores must therefore be
// logically independent (e.g. sharded key streams); the simulator does
// not model speculative conflict aborts between in-flight transactions.
func (cl *Cluster) Interleave(stream func(core int, sys *System) bool) {
	done := make([]bool, len(cl.Sys))
	remaining := len(cl.Sys)
	for remaining > 0 {
		pick := -1
		for i, s := range cl.Sys {
			if done[i] {
				continue
			}
			if pick < 0 || s.Mach.Clk < cl.Sys[pick].Mach.Clk {
				pick = i
			}
		}
		if !stream(pick, cl.Use(pick)) {
			done[pick] = true
			remaining--
		}
	}
}

// RoundRobin runs operations 0..n-1 sharded round-robin across the
// cores under Interleave: core i runs operations i, i+cores, ... in
// order, and op(sys, j) runs operation j on the executing core's
// System. The first error stops every core and is returned. This is
// how harnesses drive one deterministic operation stream on any core
// count; on one core it is the stream in order.
func (cl *Cluster) RoundRobin(n int, op func(sys *System, j int) error) error {
	cores := len(cl.Sys)
	next := make([]int, cores)
	for i := range next {
		next[i] = i
	}
	var err error
	cl.Interleave(func(core int, sys *System) bool {
		j := next[core]
		if j >= n || err != nil {
			return false
		}
		next[core] = j + cores
		if err = op(sys, j); err != nil {
			return false
		}
		return next[core] < n
	})
	return err
}

// SyncClocks aligns every core to the highest clock — the barrier
// between a setup phase and a measured parallel phase — and returns it.
func (cl *Cluster) SyncClocks() uint64 { return cl.Plat.SyncClocks() }

// MaxClk returns the highest core clock — the parallel phase's
// makespan when read after Interleave.
func (cl *Cluster) MaxClk() uint64 { return cl.Plat.MaxClk() }

// DrainLazy forces every core's deferred lazy data to PM.
func (cl *Cluster) DrainLazy() {
	for i := range cl.Sys {
		cl.Use(i).DrainLazy()
	}
}

// Stats returns the merged per-core counters. Cycles is not populated
// (per-core clocks do not sum meaningfully); use MaxClk for time.
func (cl *Cluster) Stats() stats.Counters { return cl.Plat.MergedStats() }

// Sockets returns the platform's PM socket count (1 on a single-device
// machine).
func (cl *Cluster) Sockets() int { return cl.Plat.Topo.Sockets() }

// SocketStats returns per-socket device statistics — enqueue counts,
// WPQ-full stall cycles, occupancy — in socket order. The NUMA
// experiments read it to show how persist traffic spreads over the
// topology.
func (cl *Cluster) SocketStats() []pmem.SocketStats { return cl.Plat.Topo.SocketStats() }
