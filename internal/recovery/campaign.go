package recovery

import (
	"fmt"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// CampaignConfig parameterizes a crash-injection campaign: the workload
// is run repeatedly, each run crashed at a different persist event, and
// the recovered image is verified against the set of transactions known
// committed at the crash point.
type CampaignConfig struct {
	Workload  string
	Scheme    string
	N         int // operations per run
	ValueSize int
	Seed      uint64
	// Cores runs each point on a multi-core cluster (operation stream
	// sharded round-robin, crash point counted against the machine-wide
	// persist total). 0 or 1 is the single-core campaign; Mixed is
	// insert-only cross-core and therefore rejected with Cores > 1.
	Cores int
	// Sockets runs each point on a multi-socket PM topology with the
	// sharded per-core heap (0 or 1 = the single-device machine).
	// Recovery then rebuilds the heap as per-core arena handles and the
	// verifier additionally asserts every arena's live extents
	// reconciled with the durable prefix (txheap.Heap.Check).
	Sockets int
	// Mixed interleaves updates and deletes with the inserts (for
	// workloads implementing Mutable); default is the paper's
	// insert-only ycsb-load.
	Mixed bool
	// CommitWindow is the group-commit window W forwarded to the
	// engine (0 or 1 = the per-transaction protocol). With W > 1 the
	// verifier switches from the single pending-operation bracket to
	// prefix matching: a crash may revert every transaction since the
	// last epoch close, so the recovered image must equal the oracle
	// after SOME completed-operation prefix — and within at most
	// cores*W operations of the crash point. A torn epoch (some of a
	// window's transactions applied, others not) matches no prefix and
	// fails, which is exactly the all-or-nothing property under test.
	CommitWindow int
	// Stride samples every Stride-th persist event (1 = every event).
	Stride uint64
	// MaxPoints caps the number of crash points tested (0 = no cap).
	MaxPoints int
	// Parallel is the worker count for the crash points (each point is
	// an independent deterministic run). 0 uses the bench harness
	// default (GOMAXPROCS); 1 forces the serial sweep. Results are
	// identical at any setting.
	Parallel int
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	TotalPersistEvents uint64
	PointsTested       int
	// PendingAccepted counts crash points where the in-flight
	// transaction turned out to be durable (crash after its commit
	// record persisted but before control returned).
	PendingAccepted int
	RecordsApplied  int
	LeakedBytes     uint64
}

// opKind enumerates campaign operations.
type opKind int

const (
	opInsert opKind = iota
	opUpdate
	opDelete
)

// campaignOp is one deterministic operation of the run.
type campaignOp struct {
	kind opKind
	key  uint64
	val  []byte
}

// genOps produces the deterministic operation stream.
func genOps(cfg CampaignConfig) []campaignOp {
	load := ycsb.Load{N: cfg.N, ValueSize: cfg.ValueSize, Seed: cfg.Seed}
	keys := load.Keys()
	if !cfg.Mixed {
		ops := make([]campaignOp, 0, len(keys))
		for _, k := range keys {
			ops = append(ops, campaignOp{opInsert, k, load.Value(k)})
		}
		return ops
	}
	var ops []campaignOp
	var live []uint64
	rng := cfg.Seed*0x9e3779b97f4a7c15 + 0x1234
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	ki := 0
	for len(ops) < cfg.N {
		switch {
		case len(live) < 4 || next(100) < 50:
			if ki >= len(keys) {
				return ops
			}
			k := keys[ki]
			ki++
			ops = append(ops, campaignOp{opInsert, k, load.Value(k)})
			live = append(live, k)
		case next(100) < 50:
			k := live[next(uint64(len(live)))]
			nv := load.Value(k ^ uint64(len(ops)))
			ops = append(ops, campaignOp{opUpdate, k, nv})
		default:
			i := next(uint64(len(live)))
			k := live[i]
			ops = append(ops, campaignOp{opDelete, k, nil})
			live = append(live[:i], live[i+1:]...)
		}
	}
	return ops
}

// apply executes one op against the workload.
func apply(w workloads.Workload, sys *slpmt.System, op campaignOp) error {
	switch op.kind {
	case opInsert:
		return w.Insert(sys, op.key, op.val)
	case opUpdate:
		return w.(workloads.Mutable).UpdateValue(sys, op.key, op.val)
	default:
		return w.(workloads.Mutable).Delete(sys, op.key)
	}
}

// applyOracle mutates the oracle per op.
func applyOracle(oracle map[uint64][]byte, op campaignOp) {
	switch op.kind {
	case opInsert, opUpdate:
		oracle[op.key] = op.val
	default:
		delete(oracle, op.key)
	}
}

func cloneOracle(m map[uint64][]byte) map[uint64][]byte {
	out := make(map[uint64][]byte, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// runInfo is the outcome of one (possibly crashed) execution.
type runInfo struct {
	img *pmem.Image
	// setup is the persist-event count after setup (and its epoch
	// close); total is the count at the end of the run or the crash.
	setup, total uint64
	// before is the committed state preceding the in-flight operation;
	// after additionally includes it. A crash image must match one of
	// the two (the in-flight transaction either reverted or committed).
	before, after map[uint64][]byte
	// snaps holds the oracle after every completed-operation prefix
	// (snaps[0] is the post-setup state), in global execution order.
	// Collected only under a commit window, for prefix verification.
	snaps      []map[uint64][]byte
	pendingKey uint64
	crashed    bool
}

// execute runs the workload, crashing after the given machine-wide
// persist event (0 = run to completion). The deterministic operation
// stream is sharded round-robin across the cores and run under the
// cluster interleaver, so a crash point lands on whichever core issues
// the Nth persist. The interleaver schedules at transaction
// granularity — at most one operation is ever in flight — so the
// oracle bracket (before/after around the pending op) is sound on any
// core count.
func execute(cfg CampaignConfig, crashAfter uint64) (info runInfo, err error) {
	w := workloads.MustNew(cfg.Workload)
	cl := slpmt.NewCluster(cfg.Cores, slpmt.Options{
		Scheme:             cfg.Scheme,
		ComputeCyclesPerOp: w.ComputeCost(),
		CommitWindow:       cfg.CommitWindow,
		Sockets:            cfg.Sockets,
	})
	cl.Plat.CrashAfterTotal = crashAfter

	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(machine.CrashSignal); !ok {
				panic(r)
			}
			info.crashed = true
			info.img = cl.Plat.Crash()
		}
		info.total = cl.Plat.PersistTotal
	}()

	if err := w.Setup(cl.Use(0)); err != nil {
		return info, fmt.Errorf("setup: %w", err)
	}
	// Close setup's epoch (no-op without a window) so crash points —
	// which start after setup's persist count — never revert it. A
	// grouped close seals every core's epoch, so closing core 0's (the
	// only one setup ran on) makes all of setup durable.
	cl.Use(0).FinishEpoch()
	info.setup = cl.Plat.PersistTotal
	ops := genOps(cfg)
	oracle := map[uint64][]byte{}
	if cfg.CommitWindow > 1 {
		info.snaps = append(info.snaps, cloneOracle(oracle))
	}
	err = cl.RoundRobin(len(ops), func(sys *slpmt.System, j int) error {
		op := ops[j]
		info.before = cloneOracle(oracle)
		applyOracle(oracle, op)
		info.after = oracle
		info.pendingKey = op.key
		if err := apply(w, sys, op); err != nil {
			return fmt.Errorf("op on key %d: %w", op.key, err)
		}
		info.before = info.after
		info.pendingKey = 0
		if cfg.CommitWindow > 1 {
			// The interleaver runs whole transactions, so completion
			// order here IS the cluster-global commit order.
			info.snaps = append(info.snaps, cloneOracle(oracle))
		}
		return nil
	})
	if err != nil {
		return info, err
	}
	cl.DrainLazy()
	info.img = cl.Plat.Crash()
	return info, nil
}

// verifyPoint recovers a crash image and verifies it against the
// pre-operation committed state, accepting the in-flight transaction as
// either durably committed or cleanly reverted.
func verifyPoint(cfg CampaignConfig, info runInfo, res *CampaignResult) error {
	w := workloads.MustNew(cfg.Workload) // fresh instance: no volatile state survives
	rec := w.(workloads.Recoverable)

	cores, sockets := max(cfg.Cores, 1), max(cfg.Sockets, 1)
	rep, heaps, err := RecoverSharded(info.img, rec, cores, sockets)
	if err != nil {
		return err
	}
	res.RecordsApplied += rep.RecordsApplied
	res.LeakedBytes += rep.Heap.ReclaimedBytes
	if sockets > 1 {
		// Sharded rebuild: every arena (and the global fallback) must
		// tile exactly into live blocks, free extents, and virgin space.
		if err := heaps[0].Check(); err != nil {
			return fmt.Errorf("sharded heap reconciliation: %w", err)
		}
	}

	if cfg.CommitWindow > 1 {
		// Group commit: the recovered image must equal the oracle after
		// some completed prefix (all-or-nothing per epoch — a torn
		// window matches nothing), no further back than the crash point
		// minus every core's worth of open-window transactions.
		cands := info.snaps
		if info.pendingKey != 0 {
			cands = append(append([]map[uint64][]byte{}, cands...), info.after)
		}
		bound := cores*cfg.CommitWindow + 1
		var firstErr error
		for i := len(cands) - 1; i >= 0 && len(cands)-1-i < bound; i-- {
			if err := rec.CheckDurable(info.img, cands[i]); err == nil {
				if info.pendingKey != 0 && i == len(cands)-1 {
					res.PendingAccepted++
				}
				return nil
			} else if firstErr == nil {
				firstErr = err
			}
		}
		return fmt.Errorf("durable state matches no committed prefix within %d operations of the crash (pending key %d): %v",
			bound, info.pendingKey, firstErr)
	}

	errBefore := rec.CheckDurable(info.img, info.before)
	if errBefore == nil {
		return nil
	}
	if info.pendingKey != 0 {
		if err := rec.CheckDurable(info.img, info.after); err == nil {
			res.PendingAccepted++
			return nil
		}
	}
	return fmt.Errorf("durable state invalid (pending key %d): %v", info.pendingKey, errBefore)
}

// pointOutcome is one crash point's contribution to the campaign.
type pointOutcome struct {
	crashed bool
	sub     CampaignResult // PendingAccepted/RecordsApplied/LeakedBytes only
	err     error
}

// testPoint executes one crash point and verifies the recovered image,
// returning its isolated contribution. Every run is deterministic and
// self-contained, so points can execute in any order (or concurrently)
// and aggregate to the same campaign result.
func testPoint(cfg CampaignConfig, point uint64) pointOutcome {
	var out pointOutcome
	info, err := execute(cfg, point)
	if err != nil {
		out.err = fmt.Errorf("crash point %d: %w", point, err)
		return out
	}
	if !info.crashed {
		// Point beyond the run's events (drain already done).
		return out
	}
	out.crashed = true
	if err := verifyPoint(cfg, info, &out.sub); err != nil {
		out.err = fmt.Errorf("crash point %d: %w", point, err)
	}
	return out
}

// accumulate folds one tested point into the campaign totals.
func (r *CampaignResult) accumulate(o *pointOutcome) {
	r.PointsTested++
	r.PendingAccepted += o.sub.PendingAccepted
	r.RecordsApplied += o.sub.RecordsApplied
	r.LeakedBytes += o.sub.LeakedBytes
}

// RunCampaign executes the crash-injection campaign, fanning crash
// points across cfg.Parallel workers. Outcomes are folded in ascending
// point order with the serial sweep's early-exit rules, so the result
// is bit-identical to a one-worker run.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.Stride == 0 {
		cfg.Stride = 1
	}
	if cfg.Mixed && cfg.Cores > 1 {
		return nil, fmt.Errorf("campaign: Mixed streams are not sharded across cores (cores=%d)", cfg.Cores)
	}
	// Reference run: count persist events and confirm a clean pass.
	// Crash points start after setup: a crash during setup reverts to
	// an uninitialized image, which applications handle by re-running
	// setup — there is no structure to verify.
	ref, err := execute(cfg, 0)
	if err != nil {
		return nil, err
	}
	if ref.crashed {
		return nil, fmt.Errorf("reference run crashed unexpectedly")
	}
	res := &CampaignResult{TotalPersistEvents: ref.total}

	var points []uint64
	for p := ref.setup + cfg.Stride; p <= ref.total; p += cfg.Stride {
		if cfg.MaxPoints > 0 && len(points) >= cfg.MaxPoints {
			break
		}
		points = append(points, p)
	}

	workers := cfg.Parallel
	if workers <= 0 {
		workers = bench.Parallelism()
	}
	if workers <= 1 {
		// Serial sweep: stop executing at the first error or
		// beyond-the-run point, exactly like the historical loop.
		for _, point := range points {
			out := testPoint(cfg, point)
			if out.err != nil {
				return res, out.err
			}
			if !out.crashed {
				break
			}
			res.accumulate(&out)
		}
		return res, nil
	}

	outs := make([]pointOutcome, len(points))
	if err := bench.ForEachWorkers(len(points), workers, func(i int) error {
		outs[i] = testPoint(cfg, points[i])
		return nil
	}); err != nil {
		return res, err
	}
	for i := range outs {
		if outs[i].err != nil {
			return res, outs[i].err
		}
		if !outs[i].crashed {
			break
		}
		res.accumulate(&outs[i])
	}
	return res, nil
}
