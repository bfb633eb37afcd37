package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"

	"github.com/persistmem/slpmt/internal/bench"
	"github.com/persistmem/slpmt/internal/trace"
	"github.com/persistmem/slpmt/internal/trace/stream"
)

// runStreamed executes one benchmark with the streaming trace pipeline
// attached: the event stream spills into an SLPSEG01 binlog under dir
// (memory stays bounded by the spill ring plus one segment buffer),
// live telemetry snapshots land in telemetry.ndjson, and the printed
// metrics come from the consumers fed from the binlog. With sanitize
// the binlog is replayed through the persist-order checker, and
// dropped events are a hard error because the replay would be unsound.
// With crit the run additionally carries the causal critical-path
// analyzer (fed from the binlog) and the report lands on stdout and in
// dir/critpath.txt. With check the binlog round trip is gated — the CI
// stream-check gate (see streamCheck).
func runStreamed(out io.Writer, cfg bench.RunConfig, dir string, interval uint64, check, sanitize, crit bool, hotN int) error {
	cfg.StreamDir = dir
	cfg.StreamInterval = interval
	cfg.CritPath = crit
	r := bench.Run(cfg)
	if r.VerifyErr != nil {
		return fmt.Errorf("%s/%s failed verification: %v", cfg.Scheme, cfg.Workload, r.VerifyErr)
	}

	cores := cfg.Cores
	if cores < 1 {
		cores = 1
	}
	fmt.Fprintf(out, "streamed run: %s/%s n=%d value=%dB cores=%d seed=%d\n",
		cfg.Scheme, cfg.Workload, r.N, r.ValueSize, cores, cfg.Seed)
	fmt.Fprintf(out, "cycles: %d\n", r.Cycles)

	d, err := stream.Open(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "binlog: %d segments in %s, closed=%v\n", len(d.Segments()), dir, d.Closed())
	fmt.Fprintf(out, "events: %d captured, %d dropped\n", r.Summary.Events, r.Summary.Dropped)
	if r.Intervals != nil {
		fmt.Fprintf(out, "telemetry: %d intervals in %s\n",
			len(r.Intervals.Intervals), filepath.Join(dir, bench.TelemetryFile))
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, r.Summary.String())
	if r.WPQ != nil {
		fmt.Fprintf(out, "\nWPQ occupancy over the run (high-water %dB, mean %dB):\n",
			r.Counters.WPQOccMaxBytes, r.Counters.WPQOccAvgBytes)
		fmt.Fprint(out, r.WPQ.String())
	}

	var st *stream.Stats
	var rep *trace.Report
	if sanitize || check {
		zs := trace.NewSanitizer()
		if st, err = stream.Feed(d, zs); err != nil {
			return err
		}
		rep = zs.Report(r.Summary.Dropped)
	}
	if sanitize {
		if r.Summary.Dropped > 0 {
			return fmt.Errorf("streamed run dropped %d events; the sanitizer replay is unsound", r.Summary.Dropped)
		}
		fmt.Fprintf(out, "\nstreamed sanitizer: %d events replayed, %d transactions, %d aborts\n",
			rep.Events, rep.Transactions, rep.Aborts)
		if !rep.Clean() {
			for _, v := range rep.Violations {
				fmt.Fprintf(out, "violation: %s\n", v)
			}
			return fmt.Errorf("%d persist-order violations", rep.Total)
		}
		fmt.Fprintln(out, "persist-order sanitizer: 0 violations")
	}
	if crit {
		rep := r.CritPath.Render(hotN)
		fmt.Fprintf(out, "\nstreamed critical path (analyzer fed from the binlog):\n%s", rep)
		repPath := filepath.Join(dir, "critpath.txt")
		if err := os.WriteFile(repPath, []byte(rep), 0o644); err != nil {
			return fmt.Errorf("critpath report: %w", err)
		}
		fmt.Fprintf(out, "wrote %s\n", repPath)
	}
	if check {
		return streamCheck(out, cfg, r, st, rep, hotN)
	}
	return nil
}

// streamCheck is the binlog round-trip gate. bench.Run already failed
// the run unless the reader got back every event the writer took from
// a CLOSED, untorn stream; here the replay st that produced the
// streamed sanitizer report rep is held to the same. Then the same
// configuration runs again on a full-detail in-memory ring, through the
// same consumers, and its summary, WPQ series, sanitizer report and
// (with -critpath) rendered analysis must byte-match the streamed ones.
// Any divergence is a bug in the streaming pipeline, not in the run.
func streamCheck(out io.Writer, cfg bench.RunConfig, r bench.Result, st *stream.Stats, rep *trace.Report, hotN int) error {
	if !st.Closed || st.Torn != nil || st.Events != r.Summary.Events {
		return fmt.Errorf("stream-check: binlog read back %d of %d events (closed=%v, torn=%v)",
			st.Events, r.Summary.Events, st.Closed, st.Torn)
	}
	// No verification pass: the ring must end with the measured region,
	// as the binlog does.
	cfg.StreamDir, cfg.Verify = "", false
	cfg.Trace = trace.New(bench.CritPathRingEvents)
	ring := bench.Run(cfg)
	if ring.Summary.Dropped > 0 {
		return fmt.Errorf("stream-check: the in-memory ring dropped %d events; use a smaller -n", ring.Summary.Dropped)
	}
	if r.Summary != ring.Summary {
		return fmt.Errorf("stream-check: streamed summary diverges from the ring run:\nstreamed:\n%sring:\n%s",
			r.Summary.String(), ring.Summary.String())
	}
	if !reflect.DeepEqual(r.WPQ, ring.WPQ) {
		return fmt.Errorf("stream-check: streamed WPQ series diverges from the ring run:\nstreamed:\n%sring:\n%s",
			r.WPQ.String(), ring.WPQ.String())
	}
	zr := trace.NewSanitizer()
	if _, err := stream.Feed(stream.Events(cfg.Trace.Events()), zr); err != nil {
		return err
	}
	if want := zr.Report(ring.Summary.Dropped); !reflect.DeepEqual(rep, want) {
		return fmt.Errorf("stream-check: streamed sanitize report diverges from the ring run:\nstreamed: %+v\nring:     %+v", rep, want)
	}
	checked := "summary, WPQ, and sanitize"
	if r.CritPath != nil {
		if got, want := r.CritPath.Render(hotN), ring.CritPath.Render(hotN); got != want {
			return fmt.Errorf("stream-check: streamed critpath analysis diverges from the ring run:\nstreamed:\n%sring:\n%s", got, want)
		}
		checked = "summary, WPQ, sanitize, and critpath"
	}
	fmt.Fprintf(out, "\nstream-check: binlog round trip of %d events (%d segments, closed); %s byte-match the in-memory ring run\n",
		st.Events, st.Segments, checked)
	return nil
}
