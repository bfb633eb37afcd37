package trace_test

import (
	"reflect"
	"testing"

	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
)

func TestSummarizePairsSpansPerCore(t *testing.T) {
	evs := []trace.Event{
		{Cycle: 0, Kind: trace.KTxBegin, Core: 0, Arg: 1},
		{Cycle: 5, Kind: trace.KTxBegin, Core: 1, Arg: 2},
		{Cycle: 100, Kind: trace.KTxCommit, Core: 0, Arg: 1}, // 100 cycles
		{Cycle: 305, Kind: trace.KTxCommit, Core: 1, Arg: 2}, // 300 cycles
		{Cycle: 400, Kind: trace.KTxBegin, Core: 0, Arg: 3},
		{Cycle: 450, Kind: trace.KTxAbort, Core: 0, Arg: 3}, // aborts don't count
		{Cycle: 500, Kind: trace.KLazyDrainStart, Core: 0, Arg: 1},
		{Cycle: 550, Kind: trace.KLazyDrainEnd, Core: 0, Arg: 1}, // 50 cycles
	}
	summ := stream.NewSummarizer()
	st, err := stream.Feed(stream.Events(evs), summ)
	if err != nil {
		t.Fatal(err)
	}
	s := summ.Summary(st.Events, 7)
	if s.Commits != 2 {
		t.Fatalf("Commits = %d, want 2", s.Commits)
	}
	if s.CommitP50 != 100 || s.CommitP99 != 300 {
		t.Fatalf("commit percentiles = %d/%d, want 100/300", s.CommitP50, s.CommitP99)
	}
	if s.LazyDrains != 1 || s.LazyP50 != 50 {
		t.Fatalf("lazy = %d drains p50=%d, want 1/50", s.LazyDrains, s.LazyP50)
	}
	if s.Dropped != 7 || s.Events != len(evs) {
		t.Fatalf("bookkeeping: dropped=%d events=%d", s.Dropped, s.Events)
	}
}

func TestPercentilesNearestRank(t *testing.T) {
	xs := make([]uint64, 100)
	for i := range xs {
		xs[i] = uint64(i + 1) // 1..100
	}
	p50, p95, p99 := trace.Percentiles(xs)
	if p50 != 50 || p95 != 95 || p99 != 99 {
		t.Fatalf("percentiles = %d/%d/%d", p50, p95, p99)
	}
	if a, b, c := trace.Percentiles(nil); a != 0 || b != 0 || c != 0 {
		t.Fatal("empty sample must yield zeros")
	}
}

func bucketWPQ(t *testing.T, evs []trace.Event, n int) *trace.WPQSeries {
	t.Helper()
	s, err := stream.BucketWPQ(stream.Events(evs), n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBucketWPQ(t *testing.T) {
	var evs []trace.Event
	// Occupancy ramps 64..640 over cycles 0..900, one stall at 450.
	for i := 0; i < 10; i++ {
		evs = append(evs, trace.Event{Cycle: uint64(i * 100), Kind: trace.KWPQEnqueue, Arg: uint64(64 * (i + 1))})
	}
	evs = append(evs, trace.Event{Cycle: 450, Kind: trace.KWPQStall, Arg: 33})
	evs = append(evs, trace.Event{Cycle: 890, Kind: trace.KWPQDrain, Arg: 0})
	s := bucketWPQ(t, evs, 2)
	if s == nil || len(s.Buckets) != 2 {
		t.Fatalf("series = %+v", s)
	}
	b0, b1 := s.Buckets[0], s.Buckets[1]
	if b0.OccMax != 64*5 {
		t.Fatalf("bucket 0 occ.max = %d", b0.OccMax)
	}
	if b0.StallCycles != 33 || b1.StallCycles != 0 {
		t.Fatalf("stall attribution: %d/%d", b0.StallCycles, b1.StallCycles)
	}
	if b1.OccMax != 640 || b1.Drains != 1 {
		t.Fatalf("bucket 1: %+v", b1)
	}
	if b0.Enqueues+b1.Enqueues != 10 {
		t.Fatalf("enqueue total = %d", b0.Enqueues+b1.Enqueues)
	}
	if bucketWPQ(t, []trace.Event{{Kind: trace.KStore}}, 4) != nil {
		t.Fatal("no WPQ events must yield a nil series")
	}
	if s.String() == "" {
		t.Fatal("series table must render")
	}
}

// The metrics-masked tracer must keep every kind the harness's
// reducers (stream.Summarizer, stream.BucketWPQ) consume, and drop the
// high-rate kinds they never look at.
func TestMetricsMaskCoversReducerKinds(t *testing.T) {
	m := trace.MetricsMask()
	for _, k := range []trace.Kind{trace.KTxBegin, trace.KCommitStart, trace.KTxCommit, trace.KTxAbort,
		trace.KLazyDrainStart, trace.KLazyDrainEnd, trace.KWPQEnqueue, trace.KWPQDrain, trace.KWPQStall} {
		if m&(1<<uint(k)) == 0 {
			t.Errorf("metrics mask misses %v", k)
		}
	}
	for _, k := range []trace.Kind{trace.KStore, trace.KCacheMiss, trace.KCohSnoop} {
		if m&(1<<uint(k)) != 0 {
			t.Errorf("metrics mask should drop high-rate kind %v", k)
		}
	}
	if miss := stream.NewSummarizer().Kinds() &^ m; miss != 0 {
		t.Errorf("metrics mask misses summarizer kinds %#x", miss)
	}
	// BucketWPQ's kinds are internal: check it by effect. Events of
	// every kind, and the same events filtered through the mask, must
	// give the same series.
	var all, masked []trace.Event
	for k := trace.Kind(1); k < 64; k++ {
		for i := uint64(0); i < 4; i++ {
			e := trace.Event{Cycle: uint64(k)*100 + i, Kind: k, Arg: 64 * (i + 1)}
			all = append(all, e)
			if m&(1<<uint(k)) != 0 {
				masked = append(masked, e)
			}
		}
	}
	if got, want := bucketWPQ(t, masked, 8), bucketWPQ(t, all, 8); !reflect.DeepEqual(got, want) {
		t.Errorf("metrics mask changes the WPQ series:\nmasked:\n%vall:\n%v", got, want)
	}
}
