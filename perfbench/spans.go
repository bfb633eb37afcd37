package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span names: one per public call the benchmark times. They are also
// the prefixes of the per-layer host-time metrics.
const (
	spanNew          = "slpmt.new"
	spanSetup        = "workloads.setup"
	spanInsert       = "workloads.insert"
	spanGet          = "workloads.get"
	spanUpdate       = "workloads.update"
	spanCheck        = "workloads.check"
	spanInterleave   = "cluster.interleave"
	spanDrainLazy    = "slpmt.drain_lazy"
	spanCrash        = "machine.crash"
	spanRecover      = "recovery.recover"
	spanCheckDurable = "workloads.check_durable"
	spanPoint        = "crash.point"
	spanReferenceRun = "crash.reference_run"
	spanRound        = "round"
	spanMeasured     = "measured"
	spanVerify       = "verify"
	noParent         = -1
	dropped          = -2
	// maxSpans caps the recorder's memory; later spans are counted,
	// not kept.
	maxSpans        = 300000
	spanFileColumns = "id\tparent\top\tname\tstart_ns\tend_ns\tself_ns"
)

// span is one timed call: name, start, end, the span that caused it,
// and the op it belongs to (spans of one op share the id; 0 = no op).
type span struct {
	name       string
	start, end int64 // ns since the recorder's epoch
	parent     int32
	op         int64
}

// spans records nested spans in memory. A nil *spans records nothing,
// so untraced rounds pay one nil check per call.
type spans struct {
	epoch   time.Time
	list    []span
	open    []int32 // stack of open span indices
	dropped int     // spans not kept once maxSpans were
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its
// index for end.
func (s *spans) begin(name string, op int64) int32 {
	if s == nil {
		return noParent
	}
	if len(s.list) >= maxSpans {
		s.dropped++
		return dropped
	}
	parent := int32(noParent)
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	id := int32(len(s.list))
	s.list = append(s.list, span{name: name, start: int64(time.Since(s.epoch)), parent: parent, op: op})
	s.open = append(s.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (s *spans) end(id int32) {
	if s == nil || id == dropped {
		return
	}
	n := len(s.open)
	if n == 0 || s.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	s.open = s.open[:n-1]
	s.list[id].end = int64(time.Since(s.epoch))
}

// unwind closes every span opened after mark — the spans a simulated
// crash interrupted.
func (s *spans) unwind(mark int) {
	if s == nil {
		return
	}
	for len(s.open) > mark {
		s.end(s.open[len(s.open)-1])
	}
}

// depth is the number of open spans, a mark for unwind.
func (s *spans) depth() int {
	if s == nil {
		return 0
	}
	return len(s.open)
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover.
func selfTimes(list []span) []int64 {
	children := make([][]int32, len(list))
	for i, sp := range list {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], int32(i))
		}
	}
	self := make([]int64, len(list))
	for i, sp := range list {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return list[kids[a]].start < list[kids[b]].start })
		covered, reach := int64(0), sp.start
		for _, k := range kids {
			s, e := max(list[k].start, reach), min(list[k].end, sp.end)
			if e > s {
				covered += e - s
				reach = e
			}
		}
		self[i] = sp.end - sp.start - covered
	}
	return self
}

// checkNesting reports the first span that is unclosed, ends before it
// starts, or lies outside its parent.
func checkNesting(list []span) error {
	for i, sp := range list {
		if sp.end < sp.start {
			return fmt.Errorf("span %d (%s) ends before it starts or was never closed", i, sp.name)
		}
		if sp.parent < 0 {
			continue
		}
		p := list[sp.parent]
		if sp.start < p.start || sp.end > p.end {
			return fmt.Errorf("span %d (%s) [%d,%d] outside parent %d (%s) [%d,%d]",
				i, sp.name, sp.start, sp.end, sp.parent, p.name, p.start, p.end)
		}
	}
	return nil
}

// durations returns the durations of every span with the given name,
// in the given unit.
func (s *spans) durations(name string, unit time.Duration) []float64 {
	if s == nil {
		return nil
	}
	var out []float64
	for _, sp := range s.list {
		if sp.name == name {
			out = append(out, float64(sp.end-sp.start)/float64(unit))
		}
	}
	return out
}

// write saves the spans as tab-separated rows with their self times.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	self := selfTimes(s.list)
	fmt.Fprintln(w, spanFileColumns)
	for i, sp := range s.list {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", i, sp.parent, sp.op, sp.name, sp.start, sp.end, self[i])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
