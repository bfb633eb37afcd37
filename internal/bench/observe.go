package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/persistmem/slpmt/internal/critpath"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
)

// StreamRingEvents is the spill-ring capacity attached when a run
// streams (RunConfig.StreamDir) without a caller-provided tracer: small
// enough that trace-side memory is dominated by the segment buffer, big
// enough that spill handoffs amortize.
const StreamRingEvents = 1 << 15

// CritPathRingEvents is the in-memory ring attached for a critpath run
// without a caller tracer or a stream dir: full event detail for the
// whole measured region, sized so the analyzer's Dropped check holds on
// the bench-scale runs the analysis targets (the analyzer refuses a
// lossy stream; stream to disk for bigger regions).
const CritPathRingEvents = 1 << 21

// TelemetryFile is the NDJSON telemetry file written inside StreamDir:
// one line per closed interval (see stream.Interval).
const TelemetryFile = "telemetry.ndjson"

// observer is one run's observation plumbing, shared by Run and
// RunMulti: the tracer and cycle-attribution profile, attached at the
// measured-region boundary, and the single reduction of the region's
// events at its end. Observation-only: nothing here feeds back into
// the simulation.
type observer struct {
	cfg  RunConfig
	tr   *trace.Tracer
	prof *profile.Profile

	// The binlog writer and its live telemetry, on a streamed run.
	w    *stream.Writer
	tele *stream.Telemetry
	nd   *os.File
}

// newObserver resolves the tracer and profile of a run on cores cores.
func newObserver(cfg RunConfig, cores int) *observer {
	o := &observer{cfg: cfg, tr: runTracer(cfg)}
	if cfg.Profile || cfg.CritPath {
		o.prof = profile.New(cores)
	}
	return o
}

// runTracer resolves the tracer a run should attach: the caller's
// tracer, an internal metrics-masked one, an internal full-detail one
// (streaming or critical path), or nil.
func runTracer(cfg RunConfig) *trace.Tracer {
	switch {
	case cfg.Trace != nil:
		return cfg.Trace
	case cfg.Metrics && !cfg.CritPath:
		tr := trace.New(trace.MetricsCapacity)
		tr.SetMask(trace.MetricsMask())
		return tr
	case cfg.StreamDir != "":
		// A streamed run spills, so the capacity is only the handoff
		// granularity.
		return trace.New(StreamRingEvents)
	case cfg.CritPath:
		// The analysis needs full event detail (charges, stores,
		// coherence, WPQ, signature hits) — a metrics-masked ring would
		// starve it.
		return trace.New(CritPathRingEvents)
	}
	return nil
}

// begin opens the measured region at cycle start. A traced run drops
// setup's events, restarts the WPQ occupancy window (idempotent if the
// caller already did) and, when streaming, attaches the binlog sink so
// the stream holds exactly the measured region. The profile drops
// setup's charges.
func (o *observer) begin(topo *pmem.Topology, start uint64) error {
	if o.tr != nil {
		o.tr.Reset()
		topo.ResetOccupancy(start)
		if o.cfg.StreamDir != "" {
			if err := o.attachStream(); err != nil {
				return err
			}
		}
	}
	if o.prof != nil {
		o.prof.Reset()
	}
	return nil
}

// attachStream starts the binlog writer with a live telemetry
// snapshotter and attaches it as the tracer's spill sink.
func (o *observer) attachStream() error {
	dir := o.cfg.StreamDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	nd, err := os.Create(filepath.Join(dir, TelemetryFile))
	if err != nil {
		return err
	}
	tele := stream.NewTelemetry(o.cfg.StreamInterval, nd)
	w, err := stream.NewWriter(dir, 0, tele)
	if err != nil {
		nd.Close()
		return fmt.Errorf("stream writer: %w", err)
	}
	o.tr.SetSink(w)
	o.w, o.tele, o.nd = w, tele, nd
	return nil
}

// end closes the measured region at cycle endClk and reduces a traced
// run into res: the WPQ occupancy gauges, then one pass over the
// region's events — the ring's, or the binlog's on a streamed run —
// through the summarizer and, with CritPath, the critical-path
// analyzer, then the WPQ series. res.Cycles must be set.
func (o *observer) end(res *Result, topo *pmem.Topology, endClk uint64) error {
	if o.tr == nil {
		return nil
	}
	// Retire entries that finished before the region's end so drain
	// events and the occupancy integral cover the whole interval.
	topo.QueueDepth(endClk)
	res.Counters.WPQOccMaxBytes, res.Counters.WPQOccAvgBytes = topo.OccupancyStats()

	src, err := o.source()
	if err != nil {
		return err
	}
	summ := stream.NewSummarizer()
	consumers := []stream.Consumer{summ}
	var cp *critpath.Analyzer
	if o.cfg.CritPath {
		cp = critpath.New()
		consumers = append(consumers, cp)
	}
	st, err := stream.Feed(src, consumers...)
	if err != nil {
		return fmt.Errorf("replay trace: %w", err)
	}
	res.Summary = summ.Summary(st.Events, o.tr.Dropped())
	if res.WPQ, err = stream.BucketWPQ(src, 16); err != nil {
		return fmt.Errorf("wpq series: %w", err)
	}
	if o.w != nil {
		// The binlog must round-trip: closed, untorn, and every event
		// the writer took read back.
		if st.Torn != nil || !st.Closed || uint64(st.Events) != o.w.Events() {
			return fmt.Errorf("binlog round trip: wrote %d events, read %d (closed=%v, torn=%v)",
				o.w.Events(), st.Events, st.Closed, st.Torn)
		}
		if err := o.tele.Err(); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		res.Intervals = &IntervalSeries{Intervals: o.tele.Intervals()}
	}
	if cp != nil {
		if res.CritPath, err = critAnalyze(cp, o.tr.Dropped(), res.Cycles); err != nil {
			return err
		}
	}
	return nil
}

// source returns the measured region's events: the ring, read once, or
// on a streamed run the binlog, after the ring's tail is flushed into
// it and it is closed (final segment fsync + CLOSED sentinel).
func (o *observer) source() (stream.Source, error) {
	if o.w == nil {
		return stream.Events(o.tr.Events()), nil
	}
	o.tr.Flush()
	o.w.SetDropped(o.tr.Dropped())
	err := o.w.Close()
	if cerr := o.nd.Close(); err == nil {
		err = cerr
	}
	o.tr.SetSink(nil)
	if err != nil {
		return nil, fmt.Errorf("close trace stream: %w", err)
	}
	return stream.Open(o.cfg.StreamDir)
}

// critAnalyze finishes the causal critical-path analysis and enforces
// the conservation contract rather than just reporting it: the
// critical-path length must equal the run's measured makespan.
func critAnalyze(cp *critpath.Analyzer, dropped, cycles uint64) (*critpath.Analysis, error) {
	an, err := cp.Analyze(dropped)
	if err != nil {
		return nil, err
	}
	if err := an.Check(); err != nil {
		return nil, err
	}
	if an.Makespan != cycles {
		return nil, fmt.Errorf("critpath makespan %d != measured %d cycles", an.Makespan, cycles)
	}
	return an, nil
}
