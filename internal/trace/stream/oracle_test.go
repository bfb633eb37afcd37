package stream

import "github.com/persistmem/slpmt/internal/trace"

// The slice reductions below are the reference oracles the consumer
// forms are checked against (the *MatchesInMemory tests): the
// straightforward whole-slice versions of Summarizer and BucketWPQ.

// summarizeOracle pairs begin/commit and lazy-drain start/end events
// per core over the whole slice and returns the latency percentiles.
func summarizeOracle(events []trace.Event, dropped uint64) trace.Summary {
	s := trace.Summary{Events: len(events), Dropped: dropped}
	txStart := map[uint8]uint64{}
	lazyStart := map[uint8]uint64{}
	var commits, lazies []uint64
	for _, e := range events {
		switch e.Kind {
		case trace.KTxBegin:
			txStart[e.Core] = e.Cycle
		case trace.KTxCommit:
			if c, ok := txStart[e.Core]; ok {
				commits = append(commits, e.Cycle-c)
				delete(txStart, e.Core)
			}
		case trace.KTxAbort:
			delete(txStart, e.Core)
		case trace.KLazyDrainStart:
			lazyStart[e.Core] = e.Cycle
		case trace.KLazyDrainEnd:
			if c, ok := lazyStart[e.Core]; ok {
				lazies = append(lazies, e.Cycle-c)
				delete(lazyStart, e.Core)
			}
		}
	}
	s.Commits = len(commits)
	s.CommitP50, s.CommitP95, s.CommitP99 = trace.Percentiles(commits)
	s.LazyDrains = len(lazies)
	s.LazyP50, s.LazyP95, s.LazyP99 = trace.Percentiles(lazies)
	return s
}

// bucketWPQOracle folds the WPQ events into n equal time buckets
// spanning the slice's WPQ activity, over the slice in memory. Returns
// nil if the slice holds no WPQ events.
func bucketWPQOracle(events []trace.Event, n int) *trace.WPQSeries {
	lo, hi := uint64(0), uint64(0)
	seen := false
	for _, e := range events {
		switch e.Kind {
		case trace.KWPQEnqueue, trace.KWPQDrain, trace.KWPQStall:
			if !seen || e.Cycle < lo {
				lo = e.Cycle
			}
			if e.Cycle > hi {
				hi = e.Cycle
			}
			seen = true
		}
	}
	if !seen {
		return nil
	}
	width := (hi - lo + uint64(n)) / uint64(n) // ceil so hi lands in the last bucket
	if width == 0 {
		width = 1
	}
	buckets := make([]trace.WPQBucket, n)
	sums := make([]uint64, n)
	samples := make([]uint64, n)
	for i := range buckets {
		buckets[i].StartCycle = lo + uint64(i)*width
		buckets[i].EndCycle = lo + uint64(i+1)*width
	}
	for _, e := range events {
		switch e.Kind {
		case trace.KWPQEnqueue, trace.KWPQDrain, trace.KWPQStall:
		default:
			continue
		}
		i := int((e.Cycle - lo) / width)
		if i >= n {
			i = n - 1
		}
		b := &buckets[i]
		switch e.Kind {
		case trace.KWPQEnqueue:
			b.Enqueues++
		case trace.KWPQDrain:
			b.Drains++
		case trace.KWPQStall:
			b.StallCycles += e.Arg
			continue
		}
		occ := trace.WPQOcc(e.Arg)
		if occ > b.OccMax {
			b.OccMax = occ
		}
		sums[i] += occ
		samples[i]++
	}
	for i := range buckets {
		if samples[i] > 0 {
			buckets[i].OccAvg = sums[i] / samples[i]
		}
	}
	return &trace.WPQSeries{Buckets: buckets}
}

// readAll slurps a whole stream into memory.
func readAll(d *Dir) ([]trace.Event, *Stats, error) {
	var events []trace.Event
	st, err := d.Iter(func(e trace.Event) { events = append(events, e) })
	return events, st, err
}
