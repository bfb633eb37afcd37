// Package bench is the experiment harness: it runs (scheme × workload ×
// parameter) grids of ycsb-load and renders the paper's figures as text
// tables (speedups over the FG baseline, persistent-memory write-traffic
// reductions, and sensitivity sweeps).
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/critpath"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/stats"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// RunConfig parameterizes one benchmark execution.
type RunConfig struct {
	// Scheme is the hardware design name (schemes package).
	Scheme string
	// Workload is the benchmark name (workloads package).
	Workload string
	// N is the number of insert operations (0 = 1000).
	N int
	// ValueSize is the value payload in bytes (0 = 256).
	ValueSize int
	// PMWriteNanos overrides the PM write latency (0 = 500 ns).
	PMWriteNanos uint64
	// Banks overrides the device write parallelism (0 = default 2).
	Banks int
	// WPQBytes overrides the write-pending-queue capacity (0 = 512).
	WPQBytes int
	// Seed selects the deterministic key stream (0 = default).
	Seed uint64
	// CommitWindow is the group-commit window W (0 or 1 = the
	// per-transaction protocol; see engine.Config.CommitWindow).
	CommitWindow int
	// Verify runs the structure's invariant check after the measured
	// region (errors are reported in the result).
	Verify bool
	// Cores is the simulated core count (0 or 1 = the single-core
	// platform). Multi-core runs shard the key stream round-robin
	// across the cores of one shared structure and interleave them
	// deterministically; Cycles is then the parallel phase's makespan
	// (see Run).
	Cores int
	// Sockets is the PM socket (NUMA node) count: each socket is its
	// own device behind a hop-linear interconnect and the heap is
	// sharded into per-core home-socket arenas. 0 or 1 = the
	// single-device machine (byte-identical to builds without the
	// topology).
	Sockets int
	// RemoteNanos overrides the per-hop interconnect latency of a
	// remote persist enqueue in nanoseconds (remote line fills pay
	// twice that); 0 keeps the pmem defaults. The NUMA experiment's
	// local/remote-ratio knob. Only meaningful with Sockets > 1.
	RemoteNanos uint64
	// Trace, when non-nil, attaches this tracer to the run's machine and
	// the result carries the reduced latency/WPQ metrics. The caller
	// owns the tracer (full event detail); setup events are cleared so
	// the ring holds the measured region. One tracer must not be shared
	// across concurrently executing runs (see SetParallelism).
	Trace *trace.Tracer
	// Metrics, when Trace is nil, attaches an internal metrics-masked
	// tracer (transaction lifecycle + WPQ kinds only) sized for
	// reduction rather than export, populating Result.Summary and
	// Result.WPQ without the caller managing a tracer.
	Metrics bool
	// Profile attaches a cycle-attribution profile to the run's machine
	// and populates Result.Causes with the measured region's breakdown.
	// Observation-only: cycles, counters and non-KCharge trace events
	// are identical with or without it.
	Profile bool
	// StreamDir, when non-empty, streams the measured region's trace to
	// an on-disk SLPSEG01 binlog in this directory: a spill sink is
	// attached so the ring never drops however long the run, the
	// Summary/WPQ reductions read the binlog instead of the ring (the
	// run fails unless it reads back every event written), and
	// Result.Intervals carries the live telemetry series (also written
	// as NDJSON to StreamDir/telemetry.ndjson). Without Trace or
	// Metrics, a full-detail spill ring of StreamRingEvents is
	// attached. Observation-only: simulated cycles, counters, and
	// goldens are byte-identical with streaming on.
	StreamDir string
	// StreamInterval is the telemetry snapshot window in simulated
	// cycles (0 = the stream package default).
	StreamInterval uint64
	// CritPath replays the measured region's trace through the causal
	// critical-path analyzer and populates Result.CritPath. Implies a
	// cycle-attribution profile (the analysis consumes the KCharge
	// stream) and, without a caller tracer, attaches a full-detail one
	// (CritPathRingEvents; streamed runs replay the binlog instead, so
	// the ring size never matters there). Observation-only like Profile:
	// cycles, counters and goldens are byte-identical with it on.
	CritPath bool
}

// Result is the outcome of one benchmark execution.
type Result struct {
	RunConfig
	// Cycles is the simulated time of the measured region (the N
	// inserts plus the final lazy drain).
	Cycles uint64
	// Counters is the counter delta over the measured region.
	Counters stats.Counters
	// Summary holds the trace-derived latency percentiles; zero unless
	// the run was traced (Trace or Metrics set).
	Summary trace.Summary
	// WPQ is the time-bucketed WPQ occupancy/stall series; nil unless
	// the run was traced. A pointer keeps Result comparable with ==.
	WPQ *trace.WPQSeries
	// Causes is the cycle-attribution breakdown of the measured region,
	// snapshotted before verification; nil unless Profile was set. A
	// pointer keeps Result comparable with ==.
	Causes *profile.Breakdown
	// PerSocket holds the per-socket device statistics of a
	// multi-socket run (enqueue counts, stall cycles, occupancy); nil
	// on single-device runs. A pointer keeps Result comparable.
	PerSocket *SocketBreakdown
	// Intervals is the telemetry interval series of a streamed run
	// (StreamDir set); nil otherwise. A pointer keeps Result
	// comparable.
	Intervals *IntervalSeries
	// CritPath is the causal critical-path analysis of the measured
	// region; nil unless RunConfig.CritPath was set. The conservation
	// contract (path length == Cycles, per-cause shares sum to the
	// path) is checked before the result is returned. A pointer keeps
	// Result comparable.
	CritPath *critpath.Analysis
	// VerifyErr is non-nil if the post-run invariant check failed.
	VerifyErr error
}

// PMWriteBytes is the persistent-memory write traffic of the run.
func (r Result) PMWriteBytes() uint64 { return r.Counters.PMWriteBytes() }

// SocketBreakdown wraps the per-socket device statistics of one run so
// Result can carry them behind a comparable pointer.
type SocketBreakdown struct {
	Stats []pmem.SocketStats
}

// IntervalSeries wraps a streamed run's telemetry snapshots so Result
// can carry them behind a comparable pointer.
type IntervalSeries struct {
	Intervals []stream.Interval
}

// runOptions is the platform configuration of one run: the scheme and
// timing knobs of cfg, the workload's compute cost, and the observer's
// tracer and profile.
func runOptions(cfg RunConfig, w workloads.Workload, obs *observer) slpmt.Options {
	var mc machine.Config
	mc.PM.Banks = cfg.Banks
	mc.PM.WPQBytes = cfg.WPQBytes
	return slpmt.Options{
		Scheme:             cfg.Scheme,
		Machine:            mc,
		PMWriteNanos:       cfg.PMWriteNanos,
		ComputeCyclesPerOp: w.ComputeCost(),
		CommitWindow:       cfg.CommitWindow,
		Sockets:            cfg.Sockets,
		RemoteNanos:        cfg.RemoteNanos,
		Trace:              obs.tr,
		Profile:            obs.prof,
	}
}

// Run executes one benchmark and returns the measured region's
// statistics. The structure is built on core 0, the deterministic key
// stream is sharded round-robin across the cores of one shared
// structure (on one core: the stream in order), and the per-core
// insert streams run under the cluster's deterministic interleaver.
// The measured region starts at a clock barrier after setup and ends
// when the last core finishes its shard plus the final lazy drain, so
// Cycles is the parallel makespan; Counters is the merged per-core
// delta. Results are exactly reproducible for a given (config, seed).
func Run(cfg RunConfig) Result {
	cores := max(cfg.Cores, 1)
	w := workloads.MustNew(cfg.Workload)
	obs := newObserver(cfg, cores)
	cl := slpmt.NewCluster(cores, runOptions(cfg, w, obs))
	if err := w.Setup(cl.Use(0)); err != nil {
		panic(fmt.Sprintf("bench: setup %s: %v", cfg.Workload, err))
	}
	// Seal any epoch left open by setup so the measured region starts at
	// a durability boundary and carries none of setup's deferred work.
	// A grouped close seals every core's epoch, so closing core 0's
	// (the only one setup ran on) makes all of setup durable.
	cl.Use(0).FinishEpoch()

	load := ycsb.Load{N: cfg.N, ValueSize: cfg.ValueSize, Seed: cfg.Seed}
	keys := load.Keys()
	start := cl.Stats()
	startClk := cl.SyncClocks()
	// The topology is the occupancy surface: it covers every socket's
	// queue and delegates to the one device on single-socket machines.
	topo := cl.Plat.Topo
	if err := obs.begin(topo, startClk); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	err := cl.RoundRobin(len(keys), func(sys *slpmt.System, j int) error {
		return w.Insert(sys, keys[j], load.Value(keys[j]))
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %s/%s insert: %v", cfg.Scheme, cfg.Workload, err))
	}
	// Account deferred lazy persists inside the measured region so lazy
	// schemes are not credited with traffic that merely moved past the
	// measurement boundary.
	cl.DrainLazy()
	merged := cl.Stats()
	res := Result{
		RunConfig: cfg,
		Cycles:    cl.MaxClk() - startClk,
		Counters:  merged.Delta(start),
	}
	if err := obs.end(&res, topo, cl.MaxClk()); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	if topo.Sockets() > 1 {
		res.PerSocket = &SocketBreakdown{Stats: topo.SocketStats()}
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

// Grid runs the cartesian product of schemes × workloads with shared
// parameters, returning results keyed [scheme][workload]. Cells run on
// the worker pool (see SetParallelism); the results are identical to a
// serial sweep. A failing cell panics, like Run.
func Grid(schemeNames, workloadNames []string, base RunConfig) map[string]map[string]Result {
	out, err := GridParallel(schemeNames, workloadNames, base)
	if err != nil {
		panic(err)
	}
	return out
}

// Speedup returns base.Cycles / r.Cycles.
func Speedup(baseline, r Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(r.Cycles)
}

// TrafficReduction returns the write-traffic reduction of r relative to
// the baseline, as a fraction (0.35 = 35% less traffic).
func TrafficReduction(baseline, r Result) float64 {
	b := float64(baseline.PMWriteBytes())
	if b == 0 {
		return 0
	}
	return 1 - float64(r.PMWriteBytes())/b
}

// GeoMean returns the geometric mean of xs (0 for empty input).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	prod := 1.0
	for _, x := range xs {
		prod *= x
	}
	return math.Pow(prod, 1/float64(len(xs)))
}

// Table renders a column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// F formats a float with 2 decimals; Fx appends an "x" (speedup), Pct
// renders a percentage.
func F(x float64) string   { return fmt.Sprintf("%.2f", x) }
func Fx(x float64) string  { return fmt.Sprintf("%.2fx", x) }
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// SortedKeys returns the sorted keys of a result map.
func SortedKeys(m map[string]Result) []string {
	out := make([]string, 0, len(m))
	for k := range m { //slpmt:determinism-ok: collected keys are sorted below
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
