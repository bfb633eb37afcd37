package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/recovery"
	"github.com/persistmem/slpmt/internal/stats"
	"github.com/persistmem/slpmt/internal/txheap"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

const (
	scheme    = "SLPMT"
	valueSize = ycsb.DefaultValueSize

	// verifyGets is how many keys the verification phase reads back,
	// and probeUpdates how many it updates and reads back again.
	verifyGets   = 2048
	probeUpdates = 64
	// tracedRecoveries is how often a traced round recovers its final
	// crash image, so recovery and durable-check times have enough
	// samples for a median.
	tracedRecoveries = 12
)

// workload is one named benchmark input. round runs one complete,
// self-checked execution; crossCheck re-runs the first round's
// configuration through the repository's own harness and compares.
type workload struct {
	name, why, cache, footprint string
	round                       func(e *env) (*round, error)
	crossCheck                  func(e *env, first *sim) error
}

var allWorkloads = []workload{
	{
		name:      "load-1c",
		why:       "insert-only ycsb-load, 1 core, 256 B values, caches cold, 2.7x the 2 MiB L3: engine commit, cache scans, pmem WPQ, lazy resize moves",
		cache:     "cold: empty apart from the lines the structure's setup transactions touched",
		footprint: "2.7x the 2 MiB L3 (5.7 MB of persistent heap at the end of a round)",
		round:     loadRound,
		crossCheck: func(e *env, first *sim) error {
			return checkBench(bench.RunConfig{Scheme: scheme, Workload: "hashtable", N: e.loadN(), Seed: e.seed}, first, false)
		},
	},
	{
		name:      "mix-read-1c",
		why:       "YCSB-B 95% reads over a preloaded kv-btree at 0.44x the L3, caches warm: cache lookup path; commit, log and WPQ nearly idle",
		cache:     "warm: the preload and one read of every key run in setup",
		footprint: "0.44x the 2 MiB L3 (0.9 MB of persistent heap)",
		round:     mixRound,
		crossCheck: func(e *env, first *sim) error {
			return checkBench(bench.RunConfig{Scheme: scheme, Workload: "kv-btree", N: e.mixRecords(), Seed: e.seed}, first.preload, false)
		},
	},
	{
		name:      "numa-4c",
		why:       "hashtable inserts on 4 cores, 2 sockets, W=16, caches cold, 1.1x the L3: coherence, socket topology, epoch group commit, sharded heap",
		cache:     "cold: empty apart from the lines the structure's setup transactions touched",
		footprint: "1.1x the 2 MiB L3 (2.3 MB of persistent heap at the end of a round)",
		round:     numaRound,
		crossCheck: func(e *env, first *sim) error {
			return checkBench(bench.RunConfig{Scheme: scheme, Workload: "hashtable", N: e.numaN(), Seed: e.seed,
				Cores: 4, Sockets: 2, CommitWindow: 16}, first, true)
		},
	},
	{
		name:       "crash-2c",
		why:        "crash campaign, hashtable, 2 cores, 2 sockets, W=4, a fresh machine per point: 16 MiB image setup, snapshot copy and recovery",
		cache:      "cold: every crash point builds a fresh machine",
		footprint:  "under 0.01x the 2 MiB L3 (about 12 KB of structure per point, inside a 16 MiB image)",
		round:      crashRound,
		crossCheck: crashCrossCheck,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range allWorkloads {
		if allWorkloads[i].name == name {
			return &allWorkloads[i], nil
		}
	}
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Round sizes at scale 1.
func (e *env) loadN() int      { return e.scaled(20000, 64) }
func (e *env) numaN() int      { return e.scaled(8000, 64) }
func (e *env) mixRecords() int { return e.scaled(3000, 64) }
func (e *env) mixOps() int     { return e.scaled(200000, 64) }

// sim is a round's simulated-clock outcome. It is a pure function of
// (workload, seed, scale): every round of a run must reproduce it.
type sim struct {
	ops      int
	cycles   uint64         // measured-region makespan
	counters stats.Counters // measured-region delta, merged over cores
	lat      []uint64       // per-op cycles, owning core's Cycles() delta
	heapOps  [2]uint64      // txheap allocations and bytes in the region
	live     uint64         // persistent heap bytes in use at the region's end
	// causes is the region's cycle attribution; traced rounds only.
	causes *profile.Vector
	// preload is mix-read-1c's preload phase, the part bench.Run
	// reproduces.
	preload *sim
	// campaign holds crash-2c's per-campaign totals.
	campaign []recovery.CampaignResult
	// recovery totals the verification recoveries (or crash points).
	recovered, recordsApplied, leakedBytes, pendingAccepted uint64
}

// round is one execution of a workload.
type round struct {
	traced          bool
	setup, measured time.Duration
	ops, failed     int
	firstErr        error
	host            hostSample // measured region
	heapPeak        uint64     // over setup and the measured region
	sim             sim
	cpu             map[string]int64 // profile samples per layer
}

func (r *round) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// machineUnderTest is what the verification phase needs of a System or
// Cluster.
type machineUnderTest struct {
	sys            *slpmt.System // drives verification ops
	finish         func()        // makes every commit durable
	crash          func() *pmem.Image
	cores, sockets int
}

// liveBytes is the machine-wide persistent heap in use.
func liveBytes(h *txheap.Heap) uint64 {
	_, _, _, live := h.Stats()
	return live
}

func heapTotals(hs []*txheap.Heap) [2]uint64 {
	var out [2]uint64
	seen := map[*txheap.Heap]bool{}
	for _, h := range hs {
		if seen[h] {
			continue
		}
		seen[h] = true
		a, _, b, _ := h.Stats()
		out[0] += a
		out[1] += b
	}
	return out
}

func sub2(a, b [2]uint64) [2]uint64 { return [2]uint64{a[0] - b[0], a[1] - b[1]} }

// loadInputs is the deterministic ycsb-load stream for a seed.
func loadInputs(n, valueSize int, seed uint64) ([]uint64, [][]byte) {
	l := ycsb.Load{N: n, ValueSize: valueSize, Seed: seed}
	keys := l.Keys()
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = l.Value(k)
	}
	return keys, vals
}

func loadRound(e *env) (*round, error) {
	keys, vals := e.inputs.keys, e.inputs.vals
	r := e.newRound()
	t0 := time.Now()
	w := workloads.MustNew("hashtable")
	var prof *profile.Profile
	if r.traced {
		prof = profile.New(1)
	}
	id := e.sp.begin(spanNew, 0)
	sys := slpmt.New(slpmt.Options{Scheme: scheme, ComputeCyclesPerOp: w.ComputeCost(), Profile: prof})
	e.sp.end(id)
	if err := e.setupStructure(w, sys); err != nil {
		return nil, err
	}
	sys.FinishEpoch()
	r.setup = time.Since(t0)

	topo := sys.Mach.Machine().Topo
	start, c0, h0 := sys.Stats().Snapshot(), sys.Cycles(), heapTotals([]*txheap.Heap{sys.Heap})
	topo.ResetOccupancy(c0)
	if prof != nil {
		prof.Reset()
	}
	lat := make([]uint64, len(keys))
	e.beginMeasured(r, len(keys))
	for i, k := range keys {
		op := e.nextOp()
		b := sys.Cycles()
		id := e.sp.begin(spanInsert, op)
		err := w.Insert(sys, k, vals[i])
		e.sp.end(id)
		lat[i] = sys.Cycles() - b
		if err != nil {
			r.fail(fmt.Errorf("insert key %d: %w", k, err))
		}
	}
	id = e.sp.begin(spanDrainLazy, 0)
	sys.DrainLazy()
	e.sp.end(id)
	e.endMeasured(r)

	r.sim = sim{ops: len(keys), cycles: sys.Cycles() - c0, counters: sys.Stats().Delta(start), lat: lat,
		heapOps: sub2(heapTotals([]*txheap.Heap{sys.Heap}), h0), live: liveBytes(sys.Heap)}
	topo.QueueDepth(sys.Cycles())
	r.sim.counters.WPQOccMaxBytes, r.sim.counters.WPQOccAvgBytes = topo.OccupancyStats()
	if prof != nil {
		r.sim.causes = mergedCauses(prof, []uint64{r.sim.cycles})
	}
	oracle := oracleOf(keys, vals)
	m := machineUnderTest{sys: sys, finish: sys.FinishEpoch, crash: sys.Mach.Machine().Crash, cores: 1, sockets: 1}
	e.verify(r, w, m, oracle, keys)
	return r, nil
}

func numaRound(e *env) (*round, error) {
	const cores = 4
	keys, vals := e.inputs.keys, e.inputs.vals
	r := e.newRound()
	t0 := time.Now()
	w := workloads.MustNew("hashtable")
	var prof *profile.Profile
	if r.traced {
		prof = profile.New(cores)
	}
	id := e.sp.begin(spanNew, 0)
	cl := slpmt.NewCluster(cores, slpmt.Options{Scheme: scheme, ComputeCyclesPerOp: w.ComputeCost(),
		Sockets: 2, CommitWindow: 16, Profile: prof})
	e.sp.end(id)
	if err := e.setupStructure(w, cl.Use(0)); err != nil {
		return nil, err
	}
	cl.Use(0).FinishEpoch()
	r.setup = time.Since(t0)

	heaps := clusterHeaps(cl)
	start, h0 := cl.Stats(), heapTotals(heaps)
	c0 := cl.SyncClocks()
	cl.Plat.Topo.ResetOccupancy(c0)
	if prof != nil {
		prof.Reset()
	}
	lat := make([]uint64, len(keys))
	next := make([]int, cores)
	for i := range next {
		next[i] = i
	}
	e.beginMeasured(r, len(keys))
	id = e.sp.begin(spanInterleave, 0)
	cl.Interleave(func(core int, sys *slpmt.System) bool {
		j := next[core]
		if j >= len(keys) {
			return false
		}
		next[core] = j + cores
		op := e.nextOp()
		b := sys.Cycles()
		id := e.sp.begin(spanInsert, op)
		err := w.Insert(sys, keys[j], vals[j])
		e.sp.end(id)
		lat[j] = sys.Cycles() - b
		if err != nil {
			r.fail(fmt.Errorf("insert key %d: %w", keys[j], err))
		}
		return next[core] < len(keys)
	})
	e.sp.end(id)
	id = e.sp.begin(spanDrainLazy, 0)
	cl.DrainLazy()
	e.sp.end(id)
	e.endMeasured(r)

	merged := cl.Stats()
	r.sim = sim{ops: len(keys), cycles: cl.MaxClk() - c0, counters: merged.Delta(start), lat: lat,
		heapOps: sub2(heapTotals(heaps), h0), live: liveBytes(heaps[0])}
	cl.Plat.Topo.QueueDepth(cl.MaxClk())
	r.sim.counters.WPQOccMaxBytes, r.sim.counters.WPQOccAvgBytes = cl.Plat.Topo.OccupancyStats()
	if prof != nil {
		totals := make([]uint64, cores)
		for i := range totals {
			totals[i] = cl.Plat.Core(i).Clk - c0
		}
		r.sim.causes = mergedCauses(prof, totals)
	}
	m := machineUnderTest{sys: cl.Use(0), finish: func() { finishCluster(cl) }, crash: cl.Plat.Crash,
		cores: cores, sockets: 2}
	e.verify(r, w, m, oracleOf(keys, vals), keys)
	return r, nil
}

// mixInputs is the preload and the YCSB-B operation stream for a seed.
type mixInputs struct {
	preloadKeys []uint64
	preloadVals [][]byte
	ops         []ycsb.MixOp
}

func newMixInputs(records, n int, seed uint64) mixInputs {
	mix := ycsb.Mix{Name: "ycsb-b", Records: records, N: n, ValueSize: valueSize, Seed: seed, ReadPct: 95, UpdatePct: 5}
	keys, vals := loadInputs(records, valueSize, seed)
	return mixInputs{preloadKeys: keys, preloadVals: vals, ops: mix.Ops()}
}

func mixRound(e *env) (*round, error) {
	in := e.inputs.mix
	r := e.newRound()
	t0 := time.Now()
	w := workloads.MustNew("kv-btree")
	mut := w.(workloads.Mutable)
	var prof *profile.Profile
	if r.traced {
		prof = profile.New(1)
	}
	id := e.sp.begin(spanNew, 0)
	sys := slpmt.New(slpmt.Options{Scheme: scheme, ComputeCyclesPerOp: w.ComputeCost(), Profile: prof})
	e.sp.end(id)
	if err := e.setupStructure(w, sys); err != nil {
		return nil, err
	}
	sys.FinishEpoch()

	// Preload, measured exactly as bench.Run measures a ycsb-load.
	pre := &sim{ops: len(in.preloadKeys), lat: make([]uint64, len(in.preloadKeys))}
	start, c0 := sys.Stats().Snapshot(), sys.Cycles()
	if prof != nil {
		prof.Reset()
	}
	for i, k := range in.preloadKeys {
		b := sys.Cycles()
		id := e.sp.begin(spanInsert, e.nextOp())
		err := w.Insert(sys, k, in.preloadVals[i])
		e.sp.end(id)
		pre.lat[i] = sys.Cycles() - b
		if err != nil {
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	sys.DrainLazy()
	pre.cycles, pre.counters = sys.Cycles()-c0, sys.Stats().Delta(start)
	if prof != nil {
		pre.causes = mergedCauses(prof, []uint64{pre.cycles})
	}
	oracle := oracleOf(in.preloadKeys, in.preloadVals)
	// Warm every line of the table and check the preload.
	for _, k := range in.preloadKeys {
		if err := e.get(w, sys, k, oracle[k]); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	r.setup = time.Since(t0)

	start, c0, h0 := sys.Stats().Snapshot(), sys.Cycles(), heapTotals([]*txheap.Heap{sys.Heap})
	topo := sys.Mach.Machine().Topo
	topo.ResetOccupancy(c0)
	if prof != nil {
		prof.Reset()
	}
	lat := make([]uint64, len(in.ops))
	e.beginMeasured(r, len(in.ops))
	for i, op := range in.ops {
		b := sys.Cycles()
		var err error
		switch op.Kind {
		case ycsb.OpRead:
			err = e.get(w, sys, op.Key, oracle[op.Key])
		case ycsb.OpUpdate:
			id := e.sp.begin(spanUpdate, e.nextOp())
			err = mut.UpdateValue(sys, op.Key, op.Value)
			e.sp.end(id)
			oracle[op.Key] = op.Value
		default:
			err = fmt.Errorf("unexpected op kind %d", op.Kind)
		}
		lat[i] = sys.Cycles() - b
		if err != nil {
			r.fail(err)
		}
	}
	id = e.sp.begin(spanDrainLazy, 0)
	sys.DrainLazy()
	e.sp.end(id)
	e.endMeasured(r)

	r.sim = sim{ops: len(in.ops), cycles: sys.Cycles() - c0, counters: sys.Stats().Delta(start), lat: lat,
		heapOps: sub2(heapTotals([]*txheap.Heap{sys.Heap}), h0), live: liveBytes(sys.Heap), preload: pre}
	topo.QueueDepth(sys.Cycles())
	r.sim.counters.WPQOccMaxBytes, r.sim.counters.WPQOccAvgBytes = topo.OccupancyStats()
	if prof != nil {
		r.sim.causes = mergedCauses(prof, []uint64{r.sim.cycles})
	}
	m := machineUnderTest{sys: sys, finish: sys.FinishEpoch, crash: sys.Mach.Machine().Crash, cores: 1, sockets: 1}
	e.verify(r, w, m, oracle, in.preloadKeys)
	return r, nil
}

// get reads key through the workload, under a span, and compares it
// with the oracle's value.
func (e *env) get(w workloads.Workload, sys *slpmt.System, key uint64, want []byte) error {
	id := e.sp.begin(spanGet, e.nextOp())
	got, ok := w.Get(sys, key)
	e.sp.end(id)
	if !ok {
		return fmt.Errorf("get key %d: missing", key)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("get key %d: wrong value", key)
	}
	return nil
}

func (e *env) setupStructure(w workloads.Workload, sys *slpmt.System) error {
	id := e.sp.begin(spanSetup, 0)
	err := w.Setup(sys)
	e.sp.end(id)
	if err != nil {
		return fmt.Errorf("%s setup: %w", w.Name(), err)
	}
	return nil
}

// verify checks a finished round: the structure against the oracle, a
// sample of reads, an update probe, and the recovered durable image.
// Failures count against the round.
func (e *env) verify(r *round, w workloads.Workload, m machineUnderTest, oracle map[uint64][]byte, keys []uint64) {
	vid := e.sp.begin(spanVerify, 0)
	defer e.sp.end(vid)
	id := e.sp.begin(spanCheck, 0)
	err := w.Check(m.sys, oracle)
	e.sp.end(id)
	if err != nil {
		r.fail(fmt.Errorf("check: %w", err))
	}
	stride := max(1, len(keys)/verifyGets)
	for i := 0; i < len(keys); i += stride {
		if err := e.get(w, m.sys, keys[i], oracle[keys[i]]); err != nil {
			r.fail(fmt.Errorf("verify: %w", err))
		}
	}
	if err := e.updateProbe(w, m.sys, oracle, keys); err != nil {
		r.fail(err)
	}
	m.finish()
	reps := 1
	if r.traced {
		reps = tracedRecoveries
	}
	var first *recovery.Report
	for i := 0; i < reps; i++ {
		rep, err := e.recoverAndCheck(w, m, oracle)
		switch {
		case err != nil:
			r.fail(err)
		case first == nil:
			first = rep
			r.sim.recovered++
			r.sim.recordsApplied += uint64(rep.RecordsApplied)
			r.sim.leakedBytes += rep.Heap.ReclaimedBytes
		case *rep != *first:
			r.fail(fmt.Errorf("recovering the same durable state twice gave different reports:\n %v\n %v", first, rep))
		}
	}
}

// updateProbe rewrites probeUpdates keys and reads them back.
func (e *env) updateProbe(w workloads.Workload, sys *slpmt.System, oracle map[uint64][]byte, keys []uint64) error {
	mut := w.(workloads.Mutable)
	stride := max(1, len(keys)/probeUpdates)
	for i := 0; i < len(keys); i += stride {
		k := keys[i]
		// A value stream of its own, so every probe really changes the value.
		v := ycsb.Load{ValueSize: len(oracle[k]), Seed: e.seed ^ 0x9b0be}.Value(k)
		id := e.sp.begin(spanUpdate, e.nextOp())
		err := mut.UpdateValue(sys, k, v)
		e.sp.end(id)
		if err != nil {
			return fmt.Errorf("update key %d: %w", k, err)
		}
		oracle[k] = v
		if err := e.get(w, sys, k, v); err != nil {
			return fmt.Errorf("after update: %w", err)
		}
	}
	return nil
}

// recoverAndCheck snapshots the durable image, recovers it with a fresh
// workload instance and checks it holds exactly the oracle.
func (e *env) recoverAndCheck(w workloads.Workload, m machineUnderTest, oracle map[uint64][]byte) (*recovery.Report, error) {
	id := e.sp.begin(spanCrash, 0)
	img := m.crash()
	e.sp.end(id)
	rec := workloads.MustNew(w.Name()).(workloads.Recoverable)
	id = e.sp.begin(spanRecover, 0)
	rep, heaps, err := recovery.RecoverSharded(img, rec, m.cores, m.sockets)
	e.sp.end(id)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	if m.sockets > 1 {
		if err := heaps[0].Check(); err != nil {
			return nil, fmt.Errorf("recovered heap: %w", err)
		}
	}
	id = e.sp.begin(spanCheckDurable, 0)
	err = rec.CheckDurable(img, oracle)
	e.sp.end(id)
	if err != nil {
		return nil, fmt.Errorf("durable image: %w", err)
	}
	return rep, nil
}

func oracleOf(keys []uint64, vals [][]byte) map[uint64][]byte {
	o := make(map[uint64][]byte, len(keys))
	for i, k := range keys {
		o[k] = vals[i]
	}
	return o
}

func clusterHeaps(cl *slpmt.Cluster) []*txheap.Heap {
	hs := make([]*txheap.Heap, len(cl.Sys))
	for i, s := range cl.Sys {
		hs[i] = s.Heap
	}
	return hs
}

// finishCluster makes every core's commits durable: drained lazy data
// and closed epochs.
func finishCluster(cl *slpmt.Cluster) {
	cl.DrainLazy()
	for i := range cl.Sys {
		cl.Use(i).FinishEpoch()
	}
}

func mergedCauses(p *profile.Profile, totals []uint64) *profile.Vector {
	v := p.Breakdown(totals).Merged()
	return &v
}

// checkBench compares a round's simulated outcome with bench.Run on
// the same configuration. The single-core harness leaves the WPQ
// occupancy gauges unset unless it traces, so they are compared only
// where it sets them (multi-core runs).
func checkBench(cfg bench.RunConfig, got *sim, gauges bool) error {
	cfg.Profile = got.causes != nil
	res := bench.Run(cfg)
	want := res.Counters
	have := got.counters
	if !gauges {
		have.WPQOccMaxBytes, have.WPQOccAvgBytes = 0, 0
		want.WPQOccMaxBytes, want.WPQOccAvgBytes = 0, 0
	}
	if res.Cycles != got.cycles {
		return fmt.Errorf("cycles %d, bench.Run %d", got.cycles, res.Cycles)
	}
	if have != want {
		return fmt.Errorf("counters differ from bench.Run:\n have %+v\n want %+v", have, want)
	}
	if got.causes != nil {
		if res.Causes == nil {
			return fmt.Errorf("bench.Run returned no cycle attribution")
		}
		if m := res.Causes.Merged(); m != *got.causes {
			return fmt.Errorf("cycle attribution differs from bench.Run")
		}
	}
	return nil
}
