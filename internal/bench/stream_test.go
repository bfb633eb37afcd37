package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
	"github.com/persistmem/slpmt/internal/workloads"
	"github.com/persistmem/slpmt/internal/ycsb"
)

// A streamed run is observation-only: same cycles and counters as an
// unstreamed run of the same config, with zero dropped events, and its
// binlog round-trips into the same reductions — Summary, WPQ series and
// sanitizer report — as the same run over a full-detail in-memory ring.
// Covers single- and multi-core.
func TestStreamedRunMatchesBuffered(t *testing.T) {
	for _, cores := range []int{1, 2} {
		base := RunConfig{Scheme: "SLPMT", Workload: "hashtable", N: 120, ValueSize: 64, Cores: cores}
		plain := Run(base)

		streamed := base
		streamed.StreamDir = t.TempDir()
		streamed.StreamInterval = 1 << 12
		got := Run(streamed)

		if got.Cycles != plain.Cycles {
			t.Fatalf("cores=%d: streaming changed timing: %d != %d cycles", cores, got.Cycles, plain.Cycles)
		}
		gc, pc := got.Counters, plain.Counters
		gc.WPQOccMaxBytes, gc.WPQOccAvgBytes = 0, 0
		pc.WPQOccMaxBytes, pc.WPQOccAvgBytes = 0, 0
		if gc != pc {
			t.Fatalf("cores=%d: streaming changed counters:\nstreamed:\n%s\nplain:\n%s", cores, gc.String(), pc.String())
		}
		if got.Summary.Dropped != 0 {
			t.Fatalf("cores=%d: streamed run dropped %d events", cores, got.Summary.Dropped)
		}

		ringCfg := base
		ringCfg.Trace = trace.New(CritPathRingEvents)
		ring := Run(ringCfg)
		if ring.Summary.Dropped != 0 {
			t.Fatalf("cores=%d: ring run dropped %d events", cores, ring.Summary.Dropped)
		}
		if got.Summary != ring.Summary {
			t.Fatalf("cores=%d: streamed summary %+v, ring %+v", cores, got.Summary, ring.Summary)
		}
		if !reflect.DeepEqual(got.WPQ, ring.WPQ) {
			t.Fatalf("cores=%d: streamed WPQ series differs from the ring's", cores)
		}
		if got.Counters != ring.Counters {
			t.Fatalf("cores=%d: streamed occupancy gauges differ from the ring's", cores)
		}

		d, err := stream.Open(streamed.StreamDir)
		if err != nil {
			t.Fatal(err)
		}
		zs, zr := trace.NewSanitizer(), trace.NewSanitizer()
		st, err := stream.Feed(d, zs)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Closed || st.Torn != nil || st.Events != got.Summary.Events {
			t.Fatalf("cores=%d: binlog read back %d of %d events (closed=%v, torn=%v)",
				cores, st.Events, got.Summary.Events, st.Closed, st.Torn)
		}
		if _, err := stream.Feed(stream.Events(ringCfg.Trace.Events()), zr); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(zs.Report(0), zr.Report(0)) {
			t.Fatalf("cores=%d: streamed sanitize differs from the ring's", cores)
		}

		// Telemetry: interval series present, in order, with the NDJSON
		// file mirroring it line for line.
		if got.Intervals == nil || len(got.Intervals.Intervals) == 0 {
			t.Fatalf("cores=%d: streamed run carried no telemetry intervals", cores)
		}
		var commits uint64
		for i, iv := range got.Intervals.Intervals {
			if i > 0 && iv.Index <= got.Intervals.Intervals[i-1].Index {
				t.Fatalf("cores=%d: telemetry intervals out of order", cores)
			}
			commits += iv.Commits
		}
		if commits != uint64(got.Summary.Commits) {
			t.Fatalf("cores=%d: telemetry counted %d commits, summary %d", cores, commits, got.Summary.Commits)
		}
		nd, err := os.ReadFile(filepath.Join(streamed.StreamDir, TelemetryFile))
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for _, b := range nd {
			if b == '\n' {
				lines++
			}
		}
		if lines != len(got.Intervals.Intervals) {
			t.Fatalf("cores=%d: %d NDJSON lines for %d intervals", cores, lines, len(got.Intervals.Intervals))
		}
	}
}

// TestStreamSoakMillionTransactions is the bounded-memory soak behind
// EXPERIMENTS.md ("Streaming"): one million update transactions over a
// fixed 1000-key hashtable stream through the SLPSEG01 binlog with
// zero dropped events, every commit accounted for by the streamed
// summarizer, and host heap staying flat (O(spill ring + segment
// buffer), not O(events)). It takes minutes of host time and tens of
// millions of events, so it only runs with SLPMT_STREAM_SOAK=1.
func TestStreamSoakMillionTransactions(t *testing.T) {
	if os.Getenv("SLPMT_STREAM_SOAK") == "" {
		t.Skip("set SLPMT_STREAM_SOAK=1 to run the 1M-transaction streaming soak (~minutes)")
	}
	const keys = 1000
	const txns = 1_000_000

	w := workloads.MustNew("hashtable")
	m, ok := w.(workloads.Mutable)
	if !ok {
		t.Fatal("hashtable is not Mutable")
	}
	tr := trace.New(StreamRingEvents)
	sys := slpmt.New(slpmt.Options{Scheme: "SLPMT", ComputeCyclesPerOp: w.ComputeCost(), Trace: tr})
	if err := w.Setup(sys); err != nil {
		t.Fatal(err)
	}
	load := ycsb.Load{N: keys, ValueSize: 64}
	ks := load.Keys()
	for _, k := range ks {
		if err := w.Insert(sys, k, load.Value(k)); err != nil {
			t.Fatal(err)
		}
	}
	sys.FinishEpoch()
	tr.Reset()

	dir := t.TempDir()
	nd, err := os.Create(filepath.Join(dir, TelemetryFile))
	if err != nil {
		t.Fatal(err)
	}
	tele := stream.NewTelemetry(1<<22, nd)
	wtr, err := stream.NewWriter(dir, 0, tele)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetSink(wtr)

	var ms runtime.MemStats
	var peakHeap uint64
	for i := 0; i < txns; i++ {
		k := ks[i%keys]
		if err := m.UpdateValue(sys, k, load.Value(ks[(i+7)%keys])); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if i%100_000 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap {
				peakHeap = ms.HeapAlloc
			}
		}
	}
	sys.DrainLazy()
	tr.Flush()
	wtr.SetDropped(tr.Dropped())
	if err := wtr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	tr.SetSink(nil)

	if tr.Dropped() != 0 {
		t.Fatalf("streamed soak dropped %d events", tr.Dropped())
	}
	d, err := stream.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Closed() {
		t.Fatal("stream not closed")
	}
	summ := stream.NewSummarizer()
	st, err := stream.Feed(d, summ)
	if err != nil {
		t.Fatal(err)
	}
	if st.Torn != nil {
		t.Fatalf("stream torn: %v", st.Torn)
	}
	sum := summ.Summary(st.Events, tr.Dropped())
	if sum.Commits != txns {
		t.Fatalf("streamed summarizer counted %d commits, want %d", sum.Commits, txns)
	}
	var binlog int64
	for _, name := range d.Segments() {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		binlog += fi.Size()
	}
	t.Logf("soak: %d txns, %d events over %d segments (%d MB binlog), peak host heap %d MB, %d telemetry intervals",
		txns, st.Events, st.Segments, binlog>>20, peakHeap>>20, len(tele.Intervals()))

	// O(segment) memory: the host heap must be nowhere near the
	// in-memory cost of the event stream (~40 bytes/event).
	if inMemory := uint64(st.Events) * 40; peakHeap > inMemory/4 {
		t.Errorf("peak heap %d MB is not O(segment) against an %d MB in-memory stream", peakHeap>>20, inMemory>>20)
	}
}

// The spill path must also compose with a profiled run: KCharge events
// stream through, and the per-interval attribution vectors telescope to
// the end-of-run breakdown.
func TestStreamedProfileTelescopes(t *testing.T) {
	cfg := RunConfig{
		Scheme: "SLPMT", Workload: "hashtable", N: 100, ValueSize: 64,
		Profile: true, StreamDir: t.TempDir(), StreamInterval: 1 << 12,
	}
	r := Run(cfg)
	if r.Causes == nil || r.Intervals == nil {
		t.Fatal("profiled streamed run missing breakdown or intervals")
	}
	want := r.Causes.ByName()
	got := map[string]uint64{}
	for _, iv := range r.Intervals.Intervals {
		for k, v := range iv.CyclesByCause {
			got[k] += v
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("interval attribution does not telescope:\ngot  %v\nwant %v", got, want)
	}
}
