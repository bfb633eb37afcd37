package main

import (
	"encoding/json"
	"io"
	"time"

	"github.com/persistmem/slpmt/internal/profile"
)

// Seeds: defaultSeed is used while a change is developed; every claim
// must also hold on heldOutSeed.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// metricDef describes one metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen; moves says which
// end-to-end metric a per-layer one should move, on which workload.
type metricDef struct {
	name   string
	unit   string
	clock  string // "host" or "sim"
	better string // "lower" or "higher"
	bound  float64
	moves  string
}

var endToEndDefs = []metricDef{
	{"ops_per_host_s", "1/s", "host", "higher", 0.25, ""},
	{"setup_s", "s", "host", "lower", 0.25, ""},
	{"host_alloc_bytes_per_op", "B", "host", "lower", 0.25, ""},
	{"host_heap_peak_mb", "MB", "host", "lower", 0.25, ""},
	{"sim_cycles_per_op", "cycles", "sim", "lower", 0.1, ""},
	{"sim_op_p50_cycles", "cycles", "sim", "lower", 0.25, ""},
	{"sim_op_p99_cycles", "cycles", "sim", "lower", 0.25, ""},
	{"pm_write_bytes_per_op", "B", "sim", "lower", 0.1, ""},
}

const (
	movesCrashHost = "ops_per_host_s on crash-2c"
	movesLoadHost  = "ops_per_host_s on load-1c and numa-4c"
	movesMixHost   = "ops_per_host_s on mix-read-1c"
)

var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"slpmt.new_ms", "ms", "host", "lower", 0, "setup_s everywhere; " + movesCrashHost},
		{"workloads.setup_ms", "ms", "host", "lower", 0, "setup_s"},
		{"workloads.insert_us.p50", "us", "host", "lower", 0, movesLoadHost},
		{"workloads.insert_us.p99", "us", "host", "lower", 0, movesLoadHost},
		{"workloads.get_us.p50", "us", "host", "lower", 0, movesMixHost},
		{"workloads.get_us.p99", "us", "host", "lower", 0, movesMixHost},
		{"workloads.update_us.p50", "us", "host", "lower", 0, movesMixHost},
		{"slpmt.drain_lazy_ms", "ms", "host", "lower", 0, "ops_per_host_s"},
		{"machine.crash_ms", "ms", "host", "lower", 0, movesCrashHost},
		{"recovery.recover_ms.p50", "ms", "host", "lower", 0, movesCrashHost},
		{"workloads.check_durable_ms.p50", "ms", "host", "lower", 0, movesCrashHost},
	}
	for _, l := range hostLayers {
		moves := ""
		switch l {
		case "engine", "cache", "pmem":
			moves = "ops_per_host_s on load-1c"
		case "runtime", "recovery":
			moves = movesCrashHost
		}
		defs = append(defs, metricDef{"host.cpu_frac." + l, "frac", "host", "lower", 0, moves})
	}
	defs = append(defs,
		metricDef{"host.gc_cpu_frac", "frac", "host", "lower", 0, "host_alloc_bytes_per_op and ops_per_host_s"},
		metricDef{"host.allocs_per_op", "count", "host", "lower", 0, "host_alloc_bytes_per_op and ops_per_host_s"},
		metricDef{"harness.trace_overhead_frac", "frac", "host", "lower", 0, "the gap between traced and untraced ops_per_host_s"},
	)
	const (
		cacheMoves = "sim_cycles_per_op on mix-read-1c and load-1c"
		cohMoves   = "sim_cycles_per_op on numa-4c"
		pmemMoves  = "sim_cycles_per_op and pm_write_bytes_per_op on load-1c and numa-4c"
		logMoves   = "pm_write_bytes_per_op on load-1c"
		engMoves   = "sim_op_p99_cycles on numa-4c and load-1c"
		recMoves   = "ops_per_host_s on crash-2c"
	)
	defs = append(defs,
		metricDef{"cache.l1_hit_ratio", "ratio", "sim", "higher", 0, cacheMoves},
		metricDef{"cache.l2_hit_ratio", "ratio", "sim", "higher", 0, cacheMoves},
		metricDef{"cache.l3_hit_ratio", "ratio", "sim", "higher", 0, cacheMoves},
		metricDef{"cache.evicts_per_op", "count", "sim", "lower", 0, cacheMoves},
		metricDef{"machine.coh_invalidations_per_op", "count", "sim", "lower", 0, cohMoves},
		metricDef{"machine.coh_downgrades_per_op", "count", "sim", "lower", 0, cohMoves},
		metricDef{"machine.coh_writebacks_per_op", "count", "sim", "lower", 0, cohMoves},
		metricDef{"pmem.write_entries_per_op", "count", "sim", "lower", 0, pmemMoves},
		metricDef{"pmem.read_bytes_per_op", "B", "sim", "lower", 0, pmemMoves},
		metricDef{"pmem.wpq_stall_cycles_per_op", "cycles", "sim", "lower", 0, pmemMoves},
		metricDef{"pmem.wpq_occ_avg_bytes", "B", "sim", "lower", 0, pmemMoves},
		metricDef{"pmem.wpq_occ_max_bytes", "B", "sim", "lower", 0, pmemMoves},
		metricDef{"logbuf.records_created_per_op", "count", "sim", "lower", 0, logMoves},
		metricDef{"logbuf.stalls_per_op", "count", "sim", "lower", 0, logMoves},
		metricDef{"logbuf.coalesced_ratio", "ratio", "sim", "higher", 0, logMoves},
		metricDef{"logbuf.discarded_ratio", "ratio", "sim", "higher", 0, logMoves},
		metricDef{"logfmt.log_bytes_per_op", "B", "sim", "lower", 0, logMoves},
		metricDef{"engine.eager_lines_per_op", "count", "sim", "lower", 0, engMoves},
		metricDef{"engine.lazy_deferred_per_op", "count", "sim", "higher", 0, engMoves},
		metricDef{"engine.signature_hits_per_op", "count", "sim", "lower", 0, engMoves},
		metricDef{"engine.epoch_closes_per_op", "count", "sim", "lower", 0, engMoves},
		metricDef{"engine.aborts_per_op", "count", "sim", "lower", 0, engMoves},
		metricDef{"engine.lazy_elided_ratio", "ratio", "sim", "higher", 0, engMoves},
		metricDef{"txheap.allocs_per_op", "count", "sim", "lower", 0, ""},
		metricDef{"txheap.bytes_per_op", "B", "sim", "lower", 0, ""},
		metricDef{"recovery.records_applied_per_point", "count", "sim", "lower", 0, recMoves},
		metricDef{"recovery.leaked_bytes_per_point", "B", "sim", "lower", 0, recMoves},
		metricDef{"recovery.pending_accepted_ratio", "ratio", "sim", "higher", 0, recMoves},
	)
	for _, c := range profile.Causes() {
		moves := ""
		switch c.String() {
		case "log.sync", "commit.data", "coherence":
			moves = "sim_cycles_per_op on numa-4c"
		}
		defs = append(defs, metricDef{causeMetric(c), "cycles", "sim", "lower", 0, moves})
	}
	return defs
}()

func causeMetric(c profile.Cause) string { return "cycles." + c.String() + "_per_op" }

// metricValue is one reported metric. ok is false for a percentile
// with fewer than minBeyond samples beyond it (reported as 0).
type metricValue struct {
	def     metricDef
	value   float64
	samples int
	ok      bool
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// values collects metric values by name, in definition order.
type values struct {
	defs []metricDef
	got  map[string]metricValue
}

func newValues(defs []metricDef) *values {
	return &values{defs: defs, got: map[string]metricValue{}}
}

func (v *values) set(name string, x float64, samples int) {
	v.got[name] = metricValue{value: x, samples: samples, ok: true}
}

func (v *values) pct(name string, xs []float64, q float64) {
	x, ok := percentile(xs, q)
	v.got[name] = metricValue{value: x, samples: len(xs), ok: ok}
}

func (v *values) list() []metricValue {
	out := make([]metricValue, len(v.defs))
	for i, d := range v.defs {
		m, ok := v.got[d.name]
		if !ok {
			panic("perfbench: metric " + d.name + " not computed")
		}
		m.def = d
		out[i] = m
	}
	return out
}

func latencies(s *sim) []float64 {
	xs := make([]float64, len(s.lat))
	for i, c := range s.lat {
		xs[i] = float64(c)
	}
	return xs
}

func endToEnd(res *result) []metricValue {
	v := newValues(endToEndDefs)
	var setups, peaks []float64
	var host hostSample
	var measured time.Duration
	ops := 0
	for _, r := range res.rounds {
		measured += r.measured
		setups = append(setups, r.setup.Seconds())
		peaks = append(peaks, float64(r.heapPeak)/1e6)
		host.add(r.host)
		ops += r.ops
	}
	n := len(res.rounds)
	v.set("ops_per_host_s", ratio(float64(ops), measured.Seconds()), n)
	v.set("setup_s", median(setups), n)
	v.set("host_alloc_bytes_per_op", ratio(float64(host.allocBytes), float64(ops)), n)
	v.set("host_heap_peak_mb", median(peaks), n)
	s := &res.rounds[0].sim
	v.set("sim_cycles_per_op", ratio(float64(s.cycles), float64(s.ops)), s.ops)
	lat := latencies(s)
	v.pct("sim_op_p50_cycles", lat, 0.50)
	v.pct("sim_op_p99_cycles", lat, 0.99)
	v.set("pm_write_bytes_per_op", ratio(float64(s.counters.PMWriteBytes()), float64(s.ops)), s.ops)
	return v.list()
}

func perLayer(e *env, res *result) []metricValue {
	v := newValues(perLayerDefs)
	sp := e.all
	medianOf := func(name, span string, unit time.Duration) {
		xs := sp.durations(span, unit)
		v.set(name, median(xs), len(xs))
	}
	medianOf("slpmt.new_ms", spanNew, time.Millisecond)
	medianOf("workloads.setup_ms", spanSetup, time.Millisecond)
	v.pct("workloads.insert_us.p50", sp.durations(spanInsert, time.Microsecond), 0.50)
	v.pct("workloads.insert_us.p99", sp.durations(spanInsert, time.Microsecond), 0.99)
	v.pct("workloads.get_us.p50", sp.durations(spanGet, time.Microsecond), 0.50)
	v.pct("workloads.get_us.p99", sp.durations(spanGet, time.Microsecond), 0.99)
	v.pct("workloads.update_us.p50", sp.durations(spanUpdate, time.Microsecond), 0.50)
	medianOf("slpmt.drain_lazy_ms", spanDrainLazy, time.Millisecond)
	medianOf("machine.crash_ms", spanCrash, time.Millisecond)
	v.pct("recovery.recover_ms.p50", sp.durations(spanRecover, time.Millisecond), 0.50)
	v.pct("workloads.check_durable_ms.p50", sp.durations(spanCheckDurable, time.Millisecond), 0.50)

	cpu := map[string]int64{}
	var cpuTotal int64
	var plainRates, tracedRates []float64
	var plainHost hostSample
	plainOps := 0
	for _, r := range res.rounds {
		rate := float64(r.ops) / r.measured.Seconds()
		if r.traced {
			tracedRates = append(tracedRates, rate)
			for l, n := range r.cpu {
				cpu[l] += n
				cpuTotal += n
			}
			continue
		}
		plainRates = append(plainRates, rate)
		plainHost.add(r.host)
		plainOps += r.ops
	}
	for _, l := range hostLayers {
		v.set("host.cpu_frac."+l, ratio(float64(cpu[l]), float64(cpuTotal)), int(cpuTotal))
	}
	v.set("host.gc_cpu_frac", ratio(plainHost.gcCPU, plainHost.cpu), len(plainRates))
	v.set("host.allocs_per_op", ratio(float64(plainHost.allocObjs), float64(plainOps)), plainOps)
	v.set("harness.trace_overhead_frac", 1-ratio(median(tracedRates), median(plainRates)), len(tracedRates))

	var s *sim
	for _, r := range res.rounds {
		if r.traced {
			s = &r.sim
			break
		}
	}
	c := &s.counters
	ops := float64(s.ops)
	per := func(name string, x uint64) { v.set(name, ratio(float64(x), ops), s.ops) }
	hit := func(name string, hits, misses uint64) {
		v.set(name, ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	}
	hit("cache.l1_hit_ratio", c.L1Hits, c.L1Misses)
	hit("cache.l2_hit_ratio", c.L2Hits, c.L2Misses)
	hit("cache.l3_hit_ratio", c.L3Hits, c.L3Misses)
	per("cache.evicts_per_op", c.L1Evicts+c.L2Evicts+c.L3Evicts)
	per("machine.coh_invalidations_per_op", c.CoherenceInvalidations)
	per("machine.coh_downgrades_per_op", c.CoherenceDowngrades)
	per("machine.coh_writebacks_per_op", c.CoherenceWritebacks)
	per("pmem.write_entries_per_op", c.PMWriteEntries)
	per("pmem.read_bytes_per_op", c.PMReadBytes)
	per("pmem.wpq_stall_cycles_per_op", c.WPQStallCycles)
	v.set("pmem.wpq_occ_avg_bytes", float64(c.WPQOccAvgBytes), 1)
	v.set("pmem.wpq_occ_max_bytes", float64(c.WPQOccMaxBytes), 1)
	per("logbuf.records_created_per_op", c.LogRecordsCreated)
	per("logbuf.stalls_per_op", c.LogBufferStalls)
	v.set("logbuf.coalesced_ratio", ratio(float64(c.LogRecordsCoalesced), float64(c.LogRecordsCreated)), int(c.LogRecordsCreated))
	v.set("logbuf.discarded_ratio", ratio(float64(c.LogRecordsDiscarded), float64(c.LogRecordsCreated)), int(c.LogRecordsCreated))
	per("logfmt.log_bytes_per_op", c.PMWriteBytesLog)
	per("engine.eager_lines_per_op", c.EagerLinePersists)
	per("engine.lazy_deferred_per_op", c.LazyLinesDeferred)
	per("engine.signature_hits_per_op", c.SignatureHits)
	per("engine.epoch_closes_per_op", c.EpochCloses)
	per("engine.aborts_per_op", c.TxAborts)
	v.set("engine.lazy_elided_ratio", ratio(float64(c.LazyLinesElided), float64(c.LazyLinesDeferred)), int(c.LazyLinesDeferred))
	per("txheap.allocs_per_op", s.heapOps[0])
	per("txheap.bytes_per_op", s.heapOps[1])
	pts := float64(s.recovered)
	v.set("recovery.records_applied_per_point", ratio(float64(s.recordsApplied), pts), int(s.recovered))
	v.set("recovery.leaked_bytes_per_point", ratio(float64(s.leakedBytes), pts), int(s.recovered))
	v.set("recovery.pending_accepted_ratio", ratio(float64(s.pendingAccepted), pts), int(s.recovered))
	for _, cause := range profile.Causes() {
		per(causeMetric(cause), s.causes[cause])
	}
	return v.list()
}

// description is the machine-readable record of what the benchmark
// measures, printed by --describe.
type description struct {
	Validation  string            `json:"validation"`
	Op          map[string]string `json:"op"`
	Definitions map[string]string `json:"definitions"`
	Seeds       map[string]uint64 `json:"seeds"`
	Workloads   []descWorkload    `json:"workloads"`
	EndToEnd    []descMetric      `json:"end_to_end"`
	PerLayer    []descMetric      `json:"per_layer"`
	NotReported map[string]string `json:"not_reported"`
}

type descWorkload struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	Cache     string `json:"cache_at_start"`
	Footprint string `json:"footprint_vs_l3"`
}

type descMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Clock  string  `json:"clock"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

func writeDescription(out io.Writer) error {
	d := description{
		Validation: "The timing model is unvalidated against hardware, so no error figure is given. " +
			"The paper's gem5 numbers are not a like-for-like reference.",
		Op: map[string]string{
			"load-1c":     "one insert transaction",
			"numa-4c":     "one insert transaction",
			"mix-read-1c": "one read or one update transaction",
			"crash-2c":    "one verified crash point (host metrics); one reference-run insert (simulated metrics)",
		},
		Definitions: map[string]string{
			"ops_per_host_s": "ops completed per host second over the measured regions of all rounds (total ops over total time), tracing off",
			"setup_s": "median over rounds of the host time from a round's start to its measured region: machine construction, structure Setup, " +
				"mix-read-1c's preload and warm-up reads, crash-2c's reference runs",
			"host_alloc_bytes_per_op": "Go heap bytes allocated in the measured regions per op",
			"host_heap_peak_mb": "median over rounds of the Go heap found live by a forced collection at the workload's fullest point " +
				"(the end of the measured region; for crash-2c, inside a crash point after recovery); 1 MB = 1e6 B",
			"sim_cycles_per_op": "measured-region makespan in simulated cycles per op; identical in every round and run of a seed and " +
				"equal to bench.Run/RunMulti on the same configuration (crash-2c: the reference runs, per insert)",
			"sim_op_p50_cycles":     "nearest-rank median of the owning core's Cycles() delta around each op",
			"sim_op_p99_cycles":     "nearest-rank 99th percentile of the same; any percentile is reported only with at least 10 samples beyond it, else as 0",
			"pm_write_bytes_per_op": "persistent-memory write traffic, data plus log, per op",
			"cycles.<cause>_per_op": "cycle attribution per op from Options.Profile; the causes sum to the core-cycles of the region (the makespan on one core)",
			"spans":                 "traced runs write spans-<workload>-seed<n>.tsv to the --out directory: id, parent, op, name, start_ns, end_ns, self_ns",
		},
		Seeds: map[string]uint64{"default": defaultSeed, "held_out": heldOutSeed},
		NotReported: map[string]string{
			"ops_failed_frac": "printed in the listing; the JSON line carries it as attempted and failed, and any failure fails the run",
		},
	}
	for _, w := range allWorkloads {
		d.Workloads = append(d.Workloads, descWorkload{w.name, w.why, w.cache, w.footprint})
	}
	conv := func(defs []metricDef) []descMetric {
		out := make([]descMetric, len(defs))
		for i, m := range defs {
			out[i] = descMetric{m.name, m.unit, m.clock, m.better, m.bound, m.moves}
		}
		return out
	}
	d.EndToEnd, d.PerLayer = conv(endToEndDefs), conv(perLayerDefs)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(d)
}
