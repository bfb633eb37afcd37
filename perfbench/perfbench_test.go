package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smokeRun runs one workload at a tiny size and returns the listing
// lines and the decoded final JSON line.
func smokeRun(t *testing.T, workload string, trace int, outDir string) ([]string, jsonResult) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0", "--scale", "0.02",
		"--trace", strconv.Itoa(trace), "--out", outDir}
	if err := mainErr(args, &out); err != nil {
		t.Fatalf("%s --trace %d: %v\n%s", workload, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	return lines[:len(lines)-1], res
}

// TestSmokeEveryMetric runs every workload untraced and then traced at
// a tiny size: each run must pass its checks, reproduce the other's
// simulated outcome, and print every defined metric with its unit,
// clock and direction.
func TestSmokeEveryMetric(t *testing.T) {
	for _, w := range allWorkloads {
		outDir := t.TempDir()
		for trace, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
			lines, res := smokeRun(t, w.name, trace, outDir)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s --trace %d: %d metrics in the result, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			listed := map[string][]string{}
			for _, l := range lines {
				if f := strings.Fields(l); len(f) >= 5 {
					listed[f[0]] = f
				}
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s --trace %d: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
				f := listed[d.name]
				if f == nil || f[2] != d.unit || f[3] != d.clock || f[4] != d.better {
					t.Errorf("%s --trace %d: listing for %s is %q", w.name, trace, d.name, f)
				}
			}
			if trace == 1 {
				checkSpanFile(t, filepath.Join(outDir, "spans-"+w.name+"-seed3.tsv"))
			}
		}
	}
}

// checkSpanFile reads a written span file back: every child lies inside
// its parent and every self time is non-negative.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != spanFileColumns {
		t.Fatalf("%s: missing header", path)
	}
	var list []span
	for sc.Scan() {
		c := strings.Split(sc.Text(), "\t")
		if len(c) != 7 {
			t.Fatalf("%s: row %q", path, sc.Text())
		}
		n := make([]int64, 7)
		for _, i := range []int{0, 1, 2, 4, 5, 6} {
			if n[i], err = strconv.ParseInt(c[i], 10, 64); err != nil {
				t.Fatalf("%s: row %q: %v", path, sc.Text(), err)
			}
		}
		if n[0] != int64(len(list)) {
			t.Fatalf("%s: row %d has id %d", path, len(list), n[0])
		}
		if n[6] < 0 {
			t.Errorf("%s: span %d (%s) has negative self time %d", path, n[0], c[3], n[6])
		}
		list = append(list, span{name: c[3], parent: int32(n[1]), op: n[2], start: n[4], end: n[5]})
	}
	if len(list) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	if err := checkNesting(list); err != nil {
		t.Errorf("%s: %v", path, err)
	}
}

// TestAcrossRunsCatchesADifferentOutcome plants a wrong digest where a
// run of the same binary and seed would have left one.
func TestAcrossRunsCatchesADifferentOutcome(t *testing.T) {
	dir := t.TempDir()
	s := &sim{ops: 1, cycles: 100, preload: &sim{ops: 2}}
	if err := checkAcrossRuns(dir, "k", s); err != nil {
		t.Fatal(err)
	}
	if err := checkAcrossRuns(dir, "k", &sim{ops: 1, cycles: 100, preload: &sim{ops: 2}}); err != nil {
		t.Fatalf("an equal outcome at another address failed: %v", err)
	}
	s.preload.cycles = 1
	if err := checkAcrossRuns(dir, "k", s); err == nil {
		t.Fatal("a different outcome passed")
	}
}

func TestSpanNestingAndSelfTime(t *testing.T) {
	s := newSpans()
	outer := s.begin("outer", 1)
	a := s.begin("a", 1)
	time.Sleep(time.Millisecond)
	s.end(a)
	mark := s.depth()
	s.begin("b", 1)
	s.begin("c", 1)
	s.unwind(mark) // a crash interrupted b and c
	s.end(outer)
	if err := checkNesting(s.list); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(s.list)
	for i, x := range self {
		if x < 0 {
			t.Errorf("span %d: self time %d", i, x)
		}
	}
	kids := (s.list[1].end - s.list[1].start) + (s.list[2].end - s.list[2].start)
	if want := s.list[0].end - s.list[0].start - kids; self[0] != want {
		t.Errorf("outer self time %d, want %d", self[0], want)
	}

	bad := []span{{name: "p", start: 10, end: 20, parent: noParent}, {name: "c", start: 5, end: 15, parent: 0}}
	if checkNesting(bad) == nil {
		t.Error("a child starting before its parent passed the nesting check")
	}
}

// TestPercentileNeedsTenBeyond pins the reporting rule: a percentile is
// reported only with at least ten samples beyond its rank.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{0, 0.5, false, 0},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	const in = "github.com/persistmem/slpmt/internal/"
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", in + "pmem.(*Device).drainUpTo", in + "machine.(*Core).Persist"}, "pmem"},
		{[]string{in + "workloads/hashtable.(*Table).Insert"}, "workloads"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "main.loadRound"}, "runtime"},
		{[]string{"sort.Slice", "main.selfTimes"}, "other"},
		{nil, "other"},
	} {
		if got := layerOfStack(c.frames); got != c.want {
			t.Errorf("layerOfStack(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestDescriptionFilesCurrent checks that BENCHMARK.json and
// metrics.json describe exactly the metrics and workloads this program
// reports.
func TestDescriptionFilesCurrent(t *testing.T) {
	var desc bytes.Buffer
	if err := writeDescription(&desc); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, desc.Bytes()) {
		t.Error("metrics.json is stale: regenerate it with `go run . --describe > metrics.json`")
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW []string
	for _, w := range bj.Workloads {
		gotW = append(gotW, w.Name+": "+w.Why)
	}
	for _, w := range allWorkloads {
		wantW = append(wantW, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("BENCHMARK.json workloads %q, want %q", gotW, wantW)
	}
	var gotE, wantE, gotL, wantL []string
	for _, m := range bj.EndToEnd {
		gotE = append(gotE, m.Name+" "+m.Unit+" "+m.Better+" "+strconv.FormatFloat(m.Bound, 'g', -1, 64))
	}
	for _, m := range endToEndDefs {
		wantE = append(wantE, m.name+" "+m.unit+" "+m.better+" "+strconv.FormatFloat(m.bound, 'g', -1, 64))
	}
	for _, m := range bj.PerLayer {
		gotL = append(gotL, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range perLayerDefs {
		wantL = append(wantL, m.name+" "+m.unit+" "+m.better)
	}
	if !reflect.DeepEqual(gotE, wantE) {
		t.Errorf("BENCHMARK.json end_to_end %q, want %q", gotE, wantE)
	}
	if !reflect.DeepEqual(gotL, wantL) {
		t.Errorf("BENCHMARK.json per_layer %q, want %q", gotL, wantL)
	}
}
