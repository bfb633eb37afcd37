// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload of the simulator for a host-time budget, checks
// every output, and reports metrics on two clocks: the host clock (how
// fast the simulator runs) and the simulated clock (what the modelled
// hardware would take).
//
//	go run . --workload load-1c --seed 1 --seconds 10 --trace 0
//
// A run repeats whole rounds of the workload until the budget is spent.
// Every round builds its machine from scratch, so the simulated metrics
// of all rounds of a seed must be identical; they are also checked
// against the repository's own harness (bench.Run, bench.RunMulti,
// recovery.RunCampaign) on the same configuration. With --trace 1 every
// second round records spans around each public call, a CPU profile
// and a cycle-attribution profile, and the run reports the per-layer
// metrics instead of the end-to-end ones.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it list
// every metric with its unit, clock and direction.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/persistmem/slpmt/internal/recovery"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// env is the state one run shares across its rounds.
type env struct {
	seed  uint64
	scale float64
	// sp records spans while a traced round runs and is nil otherwise;
	// all keeps every traced round's spans.
	sp, all *spans
	ops     int64 // last op id handed out
	curOp   int64 // op id the current crash point's spans share
	inputs  inputs

	measuredSpan int32
	measuredAt   time.Time
	hostAt       hostSample
	cpuProfile   bytes.Buffer
}

// inputs are generated once per run from the seed; every round
// replays them.
type inputs struct {
	keys      []uint64
	vals      [][]byte
	mix       mixInputs
	crashKeys [][]uint64
	crashVals [][][]byte
	crashCfgs []recovery.CampaignConfig // strides set by the first round
}

func (e *env) scaled(n, floor int) int { return max(floor, int(float64(n)*e.scale)) }

func (e *env) nextOp() int64 {
	e.ops++
	return e.ops
}

func (e *env) makeInputs(name string) {
	switch name {
	case "load-1c":
		e.inputs.keys, e.inputs.vals = loadInputs(e.loadN(), valueSize, e.seed)
	case "numa-4c":
		e.inputs.keys, e.inputs.vals = loadInputs(e.numaN(), valueSize, e.seed)
	case "mix-read-1c":
		e.inputs.mix = newMixInputs(e.mixRecords(), e.mixOps(), e.seed)
	case "crash-2c":
		for j := 0; j < e.crashCampaigns(); j++ {
			cfg := e.campaignConfig(j)
			k, v := loadInputs(cfg.N, cfg.ValueSize, cfg.Seed)
			e.inputs.crashKeys = append(e.inputs.crashKeys, k)
			e.inputs.crashVals = append(e.inputs.crashVals, v)
		}
	}
}

func (e *env) newRound() *round {
	runtime.GC() // every round starts from a collected heap
	return &round{traced: e.sp != nil}
}

// beginMeasured starts the measured region of r, which will run ops
// operations.
func (e *env) beginMeasured(r *round, ops int) {
	r.ops = ops
	e.measuredSpan = e.sp.begin(spanMeasured, 0)
	if r.traced {
		e.cpuProfile.Reset()
		if err := pprof.StartCPUProfile(&e.cpuProfile); err != nil {
			r.fail(fmt.Errorf("cpu profile: %w", err))
		}
	}
	e.hostAt = readHost()
	e.measuredAt = time.Now()
}

// endMeasured ends the measured region of r.
func (e *env) endMeasured(r *round) {
	r.measured = time.Since(e.measuredAt)
	r.host = readHost().sub(e.hostAt)
	if r.traced {
		pprof.StopCPUProfile()
		r.cpu = map[string]int64{}
		if err := cpuByLayer(e.cpuProfile.Bytes(), r.cpu); err != nil {
			r.fail(err)
		}
	}
	r.heapPeak = liveHeap()
	e.sp.end(e.measuredSpan)
}

// result is the outcome of a run.
type result struct {
	rounds    []*round
	checkErrs []error
	spanErr   error
}

func (res *result) correct() bool {
	for _, r := range res.rounds {
		if r.failed > 0 {
			return false
		}
	}
	return len(res.checkErrs) == 0 && res.spanErr == nil
}

// minRounds is the fewest rounds a run makes whatever its budget: an
// untraced run takes medians over at least three, a traced run needs
// two untraced and two traced rounds to compare.
func minRounds(traced bool) int {
	if traced {
		return 4
	}
	return 3
}

// runWorkload runs rounds of w until the budget is spent, then checks
// determinism and cross-checks the first round against the harness.
func runWorkload(w *workload, e *env, traced bool, budget time.Duration) (*result, error) {
	e.makeInputs(w.name)
	res := &result{}
	deadline := time.Now().Add(budget)
	var last time.Duration // wall time of the previous round
	// Start another round while it would end closer to the deadline
	// than stopping now.
	for i := 0; i < minRounds(traced) || time.Now().Add(last/2).Before(deadline); i++ {
		began := time.Now()
		e.sp = nil
		if traced && i%2 == 1 {
			e.sp = e.all
		}
		id := e.sp.begin(spanRound, 0)
		r, err := w.round(e)
		e.sp.end(id)
		if err != nil {
			return nil, err
		}
		res.rounds = append(res.rounds, r)
		last = time.Since(began)
	}
	e.sp = nil
	first, firstTraced := res.rounds[0], (*round)(nil)
	for _, r := range res.rounds {
		if !sameSim(&first.sim, &r.sim) {
			res.checkErrs = append(res.checkErrs, errors.New("simulated metrics differ between rounds of one seed"))
			break
		}
		if r.traced {
			if firstTraced == nil {
				firstTraced = r
			} else if !reflect.DeepEqual(firstTraced.sim.causes, r.sim.causes) {
				res.checkErrs = append(res.checkErrs, errors.New("cycle attribution differs between traced rounds"))
			}
		}
	}
	ref := first
	if firstTraced != nil {
		ref = firstTraced // carries the cycle attribution to compare too
	}
	if err := w.crossCheck(e, &ref.sim); err != nil {
		res.checkErrs = append(res.checkErrs, fmt.Errorf("cross-check: %w", err))
	}
	if traced {
		res.spanErr = checkNesting(e.all.list)
	}
	return res, nil
}

// sameSim compares two rounds' simulated outcomes, ignoring the cycle
// attribution only traced rounds carry.
func sameSim(a, b *sim) bool {
	return reflect.DeepEqual(a.withoutCauses(), b.withoutCauses())
}

func (s sim) withoutCauses() sim {
	s.causes = nil
	if s.preload != nil {
		p := s.preload.withoutCauses()
		s.preload = &p
	}
	return s
}

// checkAcrossRuns extends the determinism check from the rounds of one
// run to every run of the same binary: the first run of a (workload,
// seed, scale) records a digest of its simulated outcome in dir, and
// later runs, traced or not, must reproduce it. The digest is keyed by
// the binary's own hash, so rebuilding a changed simulator starts
// afresh.
func checkAcrossRuns(dir, key string, s *sim) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	binSum := sha256.Sum256(bin)
	h := sha256.New()
	for ; s != nil; s = s.preload {
		flat := s.withoutCauses()
		flat.preload = nil // print the phase, not its address
		fmt.Fprintf(h, "%+v\n", flat)
	}
	digest := hex.EncodeToString(h.Sum(nil))
	path := filepath.Join(dir, fmt.Sprintf("sim-%s-%x.digest", key, binSum[:8]))
	prev, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return os.WriteFile(path, []byte(digest), 0o644)
	case err != nil:
		return err
	case string(prev) != digest:
		return fmt.Errorf("simulated outcome differs from an earlier run of the same binary and seed (%s)", path)
	}
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = flags.String("workload", "", "workload to run")
		seed     = flags.Uint64("seed", defaultSeed, "workload seed")
		seconds  = flags.Float64("seconds", 10, "host-time budget; whole rounds run until it is spent")
		trace    = flags.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		scale    = flags.Float64("scale", 1, "multiplies every round size (small values for smoke tests)")
		outDir   = flags.String("out", "", "directory for spans and simulated-outcome digests (default $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench)")
		describe = flags.Bool("describe", false, "print the metric and workload definitions as JSON and exit")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *describe {
		return writeDescription(stdout)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	traced := *trace == 1
	if *outDir == "" {
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		*outDir = filepath.Join(dir, "perfbench")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	e := &env{seed: *seed, scale: *scale}
	if traced {
		e.all = newSpans()
	}
	res, err := runWorkload(w, e, traced, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	if err := checkAcrossRuns(*outDir, fmt.Sprintf("%s-seed%d-scale%g", w.name, *seed, *scale), &res.rounds[0].sim); err != nil {
		res.checkErrs = append(res.checkErrs, err)
	}
	var metrics []metricValue
	if traced {
		metrics = perLayer(e, res)
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, *seed))
		if err := e.all.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s, %d more not kept\n", len(e.all.list), path, e.all.dropped)
	} else {
		metrics = endToEnd(res)
	}
	return report(stdout, w, res, metrics)
}

// report prints the metric listing and the final JSON line.
func report(out io.Writer, w *workload, res *result, metrics []metricValue) error {
	attempted, failed := 0, 0
	for i, r := range res.rounds {
		fmt.Fprintf(out, "round %d: traced=%v setup=%.4fs measured=%.4fs ops=%d rate=%.1f/s heap_peak=%.1fMB\n",
			i, r.traced, r.setup.Seconds(), r.measured.Seconds(), r.ops, float64(r.ops)/r.measured.Seconds(), float64(r.heapPeak)/1e6)
		attempted += r.ops
		failed += r.failed
		if r.firstErr != nil {
			fmt.Fprintf(out, "round failure: %v\n", r.firstErr)
		}
	}
	for _, err := range res.checkErrs {
		fmt.Fprintf(out, "check failure: %v\n", err)
	}
	if res.spanErr != nil {
		fmt.Fprintf(out, "span failure: %v\n", res.spanErr)
	}
	fmt.Fprintf(out, "workload %s: %d rounds, %d ops attempted, %d failed\n", w.name, len(res.rounds), attempted, failed)
	live := res.rounds[0].sim.live
	fmt.Fprintf(out, "footprint: %d B of persistent heap in use at the end of a round, %.2fx the 2 MiB L3\n",
		live, float64(live)/(2<<20))
	fmt.Fprintf(out, "%-40s %18s %-7s %-5s %-6s %s\n", "metric", "value", "unit", "clock", "better", "samples")
	for _, m := range metrics {
		samples := ""
		if m.samples > 0 {
			samples = fmt.Sprint(m.samples)
		}
		if !m.ok {
			samples += " (too few samples; reported as 0)"
		}
		fmt.Fprintf(out, "%-40s %18.6f %-7s %-5s %-6s %s\n", m.def.name, m.value, m.def.unit, m.def.clock, m.def.better, samples)
	}
	fmt.Fprintf(out, "%-40s %18.6f %-7s %-5s %-6s\n", "ops_failed_frac", float64(failed)/float64(max(attempted, 1)), "frac", "host", "lower")
	jr := jsonResult{Correct: res.correct(), Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	if jr.Correct {
		for _, m := range metrics {
			jr.Metrics[m.def.name] = jsonMetric{Value: m.value, Unit: m.def.unit}
		}
	}
	b, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	if !jr.Correct {
		return errors.New("outputs failed their checks; no metrics reported")
	}
	return nil
}
