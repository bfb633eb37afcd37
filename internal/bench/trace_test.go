package bench

import (
	"testing"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/workloads"
)

// Tracing is observation-only: a traced run must report exactly the
// cycles and counters of an untraced run of the same config. The
// occupancy gauges are the one sanctioned difference on a single core
// (they are only measured when a tracer restarts the occupancy window),
// so they are zeroed before comparing.
func TestTracedRunIsTimingInvariant(t *testing.T) {
	for _, cores := range []int{1, 2} {
		base := RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 120, ValueSize: 64, Cores: cores}
		plain := Run(base)

		traced := base
		traced.Metrics = true
		got := Run(traced)

		if got.Cycles != plain.Cycles {
			t.Fatalf("cores=%d: traced run changed timing: %d != %d cycles", cores, got.Cycles, plain.Cycles)
		}
		gc, pc := got.Counters, plain.Counters
		gc.WPQOccMaxBytes, gc.WPQOccAvgBytes = 0, 0
		pc.WPQOccMaxBytes, pc.WPQOccAvgBytes = 0, 0
		if gc != pc {
			t.Fatalf("cores=%d: traced run changed counters:\ntraced:\n%s\nplain:\n%s", cores, gc.String(), pc.String())
		}
		if got.Summary.Commits == 0 {
			t.Fatalf("cores=%d: traced run reduced no commits", cores)
		}
		if got.Summary.CommitP50 == 0 || got.Summary.CommitP99 < got.Summary.CommitP50 {
			t.Fatalf("cores=%d: implausible commit percentiles: %+v", cores, got.Summary)
		}
		if got.WPQ == nil || len(got.WPQ.Buckets) == 0 {
			t.Fatalf("cores=%d: traced run produced no WPQ series", cores)
		}
	}
}

// A caller-supplied full-detail tracer must capture the cache and
// memory kinds the metrics mask drops, and the run must populate the
// occupancy gauges.
func TestExternalTracerCapturesFullDetail(t *testing.T) {
	tr := trace.New(1 << 16)
	r := Run(RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 60, ValueSize: 64, Trace: tr})
	kinds := map[trace.Kind]int{}
	for _, e := range tr.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []trace.Kind{trace.KTxBegin, trace.KTxCommit, trace.KStore, trace.KCacheMiss, trace.KWPQEnqueue, trace.KWPQDrain} {
		if kinds[k] == 0 {
			t.Errorf("full trace is missing %v events", k)
		}
	}
	if r.Counters.WPQOccMaxBytes == 0 {
		t.Error("traced run must report the WPQ high-water mark")
	}
	if r.Summary.Commits == 0 {
		t.Error("summary must cover the run's commits")
	}
}

// A traced run's ring holds exactly the measured region: no event may
// be stamped before the region's start cycle (the clock barrier after
// setup). Restarting the occupancy window retires WPQ entries that
// finished during setup, so it must come before the ring is cleared.
func TestTracedRunStartsAtRegion(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		cfg := RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 80, ValueSize: 64, Cores: cores}
		// The region starts where an identical untraced cluster's setup
		// ends: tracing never changes timing.
		w := workloads.MustNew(cfg.Workload)
		cl := slpmt.NewCluster(cores, runOptions(cfg, w, &observer{}))
		if err := w.Setup(cl.Use(0)); err != nil {
			t.Fatal(err)
		}
		cl.Use(0).FinishEpoch()
		start := cl.SyncClocks()

		tr := trace.New(1 << 18)
		cfg.Trace = tr
		Run(cfg)
		evs := tr.Events()
		if len(evs) == 0 || tr.Dropped() != 0 {
			t.Fatalf("cores=%d: %d events, %d dropped", cores, len(evs), tr.Dropped())
		}
		for _, e := range evs {
			if e.Cycle < start {
				t.Fatalf("cores=%d: %v event at cycle %d precedes the region start %d", cores, e.Kind, e.Cycle, start)
			}
		}
	}
}
