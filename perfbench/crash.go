package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/recovery"
	"github.com/persistmem/slpmt/internal/stats"
	"github.com/persistmem/slpmt/internal/workloads"
)

// crash-2c shape: each round runs crashCampaigns independent campaigns
// (sub-seeds of the run's seed), each crashing its run at
// crashPointsPer stride-sampled persist events.
const (
	crashCores     = 2
	crashSockets   = 2
	crashWindow    = 4
	crashValueSize = 64
)

func (e *env) crashCampaigns() int { return e.scaled(8, 2) }
func (e *env) crashOpsPer() int    { return e.scaled(128, 16) }
func (e *env) crashPointsPer() int { return e.scaled(16, 4) }

// campaignConfig is the recovery.RunCampaign configuration of campaign
// j. Stride is filled in from the reference run.
func (e *env) campaignConfig(j int) recovery.CampaignConfig {
	return recovery.CampaignConfig{
		Workload: "hashtable", Scheme: scheme, N: e.crashOpsPer(), ValueSize: crashValueSize,
		Seed: e.seed<<8 | uint64(j+1), Cores: crashCores, Sockets: crashSockets, CommitWindow: crashWindow,
		MaxPoints: e.crashPointsPer(), Parallel: 1,
	}
}

// crashRun is one execution of a campaign's operation stream, possibly
// cut short by a simulated crash.
type crashRun struct {
	w        workloads.Workload
	cl       *slpmt.Cluster
	img      *pmem.Image
	done     []int // op indices in completion order
	pending  int   // op in flight at the crash, or -1
	crashed  bool
	setupPer uint64 // persist events of setup
	lat      []uint64
	start    []uint64       // per-core clocks after setup
	base     stats.Counters // counters after setup
	heap0    [2]uint64      // txheap totals after setup
	prof     *profile.Profile
}

// runCampaignOps builds a cluster, sets the structure up and runs the
// campaign's insert stream sharded round-robin over the cores, crashing
// after persist event crashAfter (0 = run to completion).
func (e *env) runCampaignOps(cfg recovery.CampaignConfig, keys []uint64, vals [][]byte, crashAfter uint64, prof *profile.Profile) (run crashRun, err error) {
	w := workloads.MustNew(cfg.Workload)
	run.w = w
	run.pending = -1
	run.prof = prof
	id := e.sp.begin(spanNew, e.curOp)
	run.cl = slpmt.NewCluster(cfg.Cores, slpmt.Options{Scheme: cfg.Scheme, ComputeCyclesPerOp: w.ComputeCost(),
		CommitWindow: cfg.CommitWindow, Sockets: cfg.Sockets, Profile: prof})
	e.sp.end(id)
	cl := run.cl
	cl.Plat.CrashAfterTotal = crashAfter
	mark := e.sp.depth()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(machine.CrashSignal); !ok {
				panic(r)
			}
			e.sp.unwind(mark)
			run.crashed = true
			id := e.sp.begin(spanCrash, e.curOp)
			run.img = cl.Plat.Crash()
			e.sp.end(id)
		}
	}()
	if err := e.setupStructure(w, cl.Use(0)); err != nil {
		return run, err
	}
	cl.Use(0).FinishEpoch()
	run.setupPer = cl.Plat.PersistTotal
	run.lat = make([]uint64, len(keys))
	if prof != nil {
		prof.Reset()
	}
	// No clock barrier here, unlike bench.RunMulti: RunCampaign starts
	// the cores where setup left them, and the persist-event count
	// depends on the schedule.
	run.base = cl.Stats()
	run.heap0 = heapTotals(clusterHeaps(cl))
	for _, c := range cl.Plat.Cores() {
		run.start = append(run.start, c.Clk)
	}
	next := make([]int, cfg.Cores)
	for i := range next {
		next[i] = i
	}
	id = e.sp.begin(spanInterleave, e.curOp)
	cl.Interleave(func(core int, sys *slpmt.System) bool {
		j := next[core]
		if j >= len(keys) || err != nil {
			return false
		}
		next[core] = j + cfg.Cores
		run.pending = j
		op := e.curOp
		if op == 0 {
			op = e.nextOp()
		}
		b := sys.Cycles()
		id := e.sp.begin(spanInsert, op)
		if ierr := w.Insert(sys, keys[j], vals[j]); ierr != nil {
			err = fmt.Errorf("insert key %d: %w", keys[j], ierr)
		}
		e.sp.end(id)
		run.lat[j] = sys.Cycles() - b
		run.pending = -1
		run.done = append(run.done, j)
		return next[core] < len(keys)
	})
	e.sp.end(id)
	if err != nil {
		return run, err
	}
	id = e.sp.begin(spanDrainLazy, e.curOp)
	cl.DrainLazy()
	e.sp.end(id)
	return run, nil
}

func crashRound(e *env) (*round, error) {
	r := e.newRound()
	r.sim.campaign = make([]recovery.CampaignResult, e.crashCampaigns())
	var pts [][]uint64
	var cfgs []recovery.CampaignConfig
	for j := range r.sim.campaign {
		cfg := e.campaignConfig(j)
		keys, vals := e.inputs.crashKeys[j], e.inputs.crashVals[j]
		// Reference run: the persist-event count and the simulated
		// metrics, the same execution RunCampaign's reference makes.
		t0 := time.Now()
		var prof *profile.Profile
		if r.traced {
			prof = profile.New(cfg.Cores)
		}
		id := e.sp.begin(spanReferenceRun, 0)
		ref, err := e.runCampaignOps(cfg, keys, vals, 0, prof)
		e.sp.end(id)
		if err != nil {
			return nil, fmt.Errorf("campaign %d reference run: %w", j, err)
		}
		if ref.crashed {
			return nil, fmt.Errorf("campaign %d reference run crashed", j)
		}
		total := ref.cl.Plat.PersistTotal
		r.setup += time.Since(t0)
		e.addReferenceSim(r, ref)
		e.verifyReference(r, ref, oracleOf(keys, vals), keys)

		cfg.Stride = max(1, (total-ref.setupPer)/uint64(cfg.MaxPoints))
		var points []uint64
		for p := ref.setupPer + cfg.Stride; p <= total && len(points) < cfg.MaxPoints; p += cfg.Stride {
			points = append(points, p)
		}
		r.sim.campaign[j].TotalPersistEvents = total
		pts = append(pts, points)
		cfgs = append(cfgs, cfg)
	}
	e.inputs.crashCfgs = cfgs

	ops := 0
	for _, points := range pts {
		ops += len(points)
	}
	e.beginMeasured(r, ops)
	for j, points := range pts {
		keys, vals := e.inputs.crashKeys[j], e.inputs.crashVals[j]
		for _, p := range points {
			if err := e.crashPoint(r, cfgs[j], keys, vals, p, &r.sim.campaign[j], nil); err != nil {
				r.fail(fmt.Errorf("campaign %d point %d: %w", j, p, err))
			}
		}
	}
	e.endMeasured(r)
	// The live heap peaks inside a point: rerun the first point,
	// untimed, and measure it once recovery is done.
	if len(pts[0]) > 0 {
		var scratch recovery.CampaignResult
		if err := e.crashPoint(&round{}, cfgs[0], e.inputs.crashKeys[0], e.inputs.crashVals[0], pts[0][0], &scratch, &r.heapPeak); err != nil {
			r.fail(fmt.Errorf("heap probe point: %w", err))
		}
	}
	return r, nil
}

// addReferenceSim folds a reference run into the round's simulated
// metrics (crash-2c reports them per reference-run insert).
func (e *env) addReferenceSim(r *round, ref crashRun) {
	s := &r.sim
	st := ref.cl.Stats()
	st = st.Delta(ref.base)
	s.ops += len(ref.lat)
	s.cycles += ref.cl.MaxClk() - slices.Max(ref.start)
	s.counters.Add(&st)
	s.lat = append(s.lat, ref.lat...)
	h := sub2(heapTotals(clusterHeaps(ref.cl)), ref.heap0)
	s.heapOps[0] += h[0]
	s.heapOps[1] += h[1]
	s.live = max(s.live, liveBytes(ref.cl.Sys[0].Heap))
	if ref.prof != nil {
		totals := make([]uint64, len(ref.cl.Sys))
		for i := range totals {
			totals[i] = ref.cl.Plat.Core(i).Clk - ref.start[i]
		}
		v := mergedCauses(ref.prof, totals)
		if s.causes == nil {
			s.causes = new(profile.Vector)
		}
		for c, n := range v {
			s.causes[c] += n
		}
	}
}

// verifyReference checks a completed reference run like any other
// round's end state.
func (e *env) verifyReference(r *round, ref crashRun, oracle map[uint64][]byte, keys []uint64) {
	id := e.sp.begin(spanVerify, 0)
	defer e.sp.end(id)
	sys := ref.cl.Use(0)
	for _, k := range keys {
		if err := e.get(ref.w, sys, k, oracle[k]); err != nil {
			r.fail(fmt.Errorf("reference run: %w", err))
		}
	}
	if err := e.updateProbe(ref.w, sys, oracle, keys); err != nil {
		r.fail(fmt.Errorf("reference run: %w", err))
	}
}

// crashPoint runs one crash point and checks that the recovered image
// equals the oracle after some committed prefix no further back than
// every core's open commit window — RunCampaign's acceptance rule.
// With heapPeak set it also measures the live heap once recovery is
// done.
func (e *env) crashPoint(r *round, cfg recovery.CampaignConfig, keys []uint64, vals [][]byte, point uint64, res *recovery.CampaignResult, heapPeak *uint64) error {
	e.curOp = e.nextOp()
	defer func() { e.curOp = 0 }()
	id := e.sp.begin(spanPoint, e.curOp)
	defer e.sp.end(id)
	run, err := e.runCampaignOps(cfg, keys, vals, point, nil)
	if err != nil {
		return err
	}
	if !run.crashed {
		return errors.New("run ended before the crash point")
	}
	rec := workloads.MustNew(cfg.Workload).(workloads.Recoverable)
	rid := e.sp.begin(spanRecover, e.curOp)
	rep, heaps, err := recovery.RecoverSharded(run.img, rec, cfg.Cores, cfg.Sockets)
	e.sp.end(rid)
	if err != nil {
		return err
	}
	if cfg.Sockets > 1 {
		if err := heaps[0].Check(); err != nil {
			return fmt.Errorf("recovered heap: %w", err)
		}
	}
	if heapPeak != nil {
		*heapPeak = liveHeap()
		runtime.KeepAlive(run.cl)
	}
	// Candidate prefixes, newest first: the pending op applied, then
	// every completed prefix within the bound.
	type cand struct {
		n       int
		pending bool
	}
	var cands []cand
	if run.pending >= 0 {
		cands = append(cands, cand{len(run.done), true})
	}
	for n := len(run.done); n >= 0; n-- {
		cands = append(cands, cand{n, false})
	}
	bound := cfg.Cores*cfg.CommitWindow + 1
	var firstErr error
	for i, c := range cands {
		if i >= bound {
			break
		}
		oracle := make(map[uint64][]byte, c.n+1)
		for _, j := range run.done[:c.n] {
			oracle[keys[j]] = vals[j]
		}
		if c.pending {
			oracle[keys[run.pending]] = vals[run.pending]
		}
		cid := e.sp.begin(spanCheckDurable, e.curOp)
		err := rec.CheckDurable(run.img, oracle)
		e.sp.end(cid)
		if err == nil {
			res.PointsTested++
			res.RecordsApplied += rep.RecordsApplied
			res.LeakedBytes += rep.Heap.ReclaimedBytes
			if c.pending {
				res.PendingAccepted++
			}
			r.sim.recovered++
			r.sim.recordsApplied += uint64(rep.RecordsApplied)
			r.sim.leakedBytes += rep.Heap.ReclaimedBytes
			if c.pending {
				r.sim.pendingAccepted++
			}
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return fmt.Errorf("durable state matches no committed prefix within %d operations: %v", bound, firstErr)
}

// crashCrossCheck runs recovery.RunCampaign on every campaign of the
// first round and compares its totals.
func crashCrossCheck(e *env, first *sim) error {
	for j, cfg := range e.inputs.crashCfgs {
		want, err := recovery.RunCampaign(cfg)
		if err != nil {
			return fmt.Errorf("campaign %d: RunCampaign: %w", j, err)
		}
		if got := first.campaign[j]; got != *want {
			return fmt.Errorf("campaign %d: totals %+v, RunCampaign %+v", j, got, *want)
		}
	}
	return nil
}
