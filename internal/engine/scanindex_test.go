package engine

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/persistmem/slpmt/internal/cache"
	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/trace"
)

// The commit scans resolve the engine's own line sets in the private
// caches (txPrivateLines, clearEpochPersistBits) instead of walking
// every L1 and L2 line. The whole-cache walks they replace are kept
// here as the reference, and randomized programs check the two agree
// before every commit and every operation that may close an epoch.

// refTxScan is the hardware commit scan as a whole-cache walk: every
// private line carrying the running transaction's ID, L1 then L2, in
// (set, way) order.
func refTxScan(e *Engine) []*cache.Line {
	id := lineID(e.cur.id)
	var out []*cache.Line
	visit := func(l *cache.Line) {
		if l.TxID == id {
			out = append(out, l)
		}
	}
	e.m.L1.ForEach(visit)
	e.m.L2.ForEach(visit)
	return out
}

// checkTxScan compares the indexed commit scan with the reference
// walk. Below W=2 the indexed visit must persist exactly the
// reference's lines in the reference's order, and no line the walk
// would act on (persist or log bits set) may lie outside the index. A
// grouped commit acts on log bits only; persist bits wait for the epoch
// close, which clears them by address (see checkEpochIndex). It
// returns the lines an undo commit must write to PM, in order: the
// walk's dirty persist-bit lines.
func checkTxScan(t *testing.T, e *Engine, where string) (writes []mem.Addr) {
	t.Helper()
	ref := refTxScan(e)
	hits := slices.Clone(e.txPrivateLines())
	slices.SortFunc(hits, func(a, b privHit) int { return cmp.Compare(a.pos, b.pos) })
	indexed := map[*cache.Line]bool{}
	var got []mem.Addr
	for _, h := range hits {
		if h.line.TxID != lineID(e.cur.id) {
			t.Fatalf("%s: index holds line %#x of another transaction", where, h.line.Addr)
		}
		if h.line.Persist && !indexed[h.line] {
			got = append(got, h.line.Addr)
		}
		indexed[h.line] = true
	}
	var want []mem.Addr
	for _, l := range ref {
		if l.Persist {
			want = append(want, l.Addr)
			if l.State == cache.Modified {
				writes = append(writes, l.Addr)
			}
		}
		if indexed[l] {
			continue
		}
		if l.LogBits != 0 || (l.Persist && !e.grouped()) {
			t.Fatalf("%s: line %#x (persist=%v log=%#x) carries the transaction's ID outside the index",
				where, l.Addr, l.Persist, l.LogBits)
		}
	}
	if !e.grouped() && !slices.Equal(got, want) {
		t.Fatalf("%s: indexed scan persists %#x, whole-cache walk %#x", where, got, want)
	}
	return writes
}

// commitDataWrites extracts the heap-line WPQ enqueues an undo commit
// issued between its start and its commit marker: the data persists
// of the commit scan (the log drain writes only the log region).
func commitDataWrites(evs []trace.Event, l mem.Layout) []mem.Addr {
	var out []mem.Addr
	in := false
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KCommitStart:
			in = true
		case trace.KCommitMarker:
			in = false
		case trace.KWPQEnqueue:
			if in && ev.Addr >= l.HeapBase && ev.Addr < l.HeapBase+l.HeapSize {
				out = append(out, ev.Addr)
			}
		}
	}
	return out
}

// checkEpochIndex compares the epoch close's indexed visit (the pending
// keys resolved in the private caches) with a walk for lines whose
// address is pending.
func checkEpochIndex(t *testing.T, e *Engine, where string) {
	t.Helper()
	if !e.grouped() {
		return
	}
	p := &e.epochPending
	if len(p.keys) != len(p.m) {
		t.Fatalf("%s: %d pending keys listed for %d pending lines", where, len(p.keys), len(p.m))
	}
	got := map[*cache.Line]bool{}
	for _, la := range p.keys {
		if _, ok := p.m[la]; !ok {
			t.Fatalf("%s: listed key %#x is not pending", where, la)
		}
		if l, _ := e.privateLine(la); l != nil {
			got[l] = true
		}
	}
	n := 0
	visit := func(l *cache.Line) {
		if _, ok := p.m[l.Addr]; ok {
			n++
			if !got[l] {
				t.Fatalf("%s: pending line %#x is private but not visited", where, l.Addr)
			}
		}
	}
	e.m.L1.ForEach(visit)
	e.m.L2.ForEach(visit)
	if n != len(got) {
		t.Fatalf("%s: visit resolves %d lines, walk finds %d", where, len(got), n)
	}
}

// runScanProgram drives random transactions over a working set larger
// than the (shrunken) private caches, so lines move between L1, L2, L3
// and the peers' caches mid-transaction, with lazy stores, aborts and
// forced epoch closes mixed in. Per-transaction undo commits are also
// traced, to check the persists the engine actually issued.
func runScanProgram(t *testing.T, seed int64, mode LogMode, w, cores, sockets int) {
	rng := rand.New(rand.NewSource(seed))
	var tr *trace.Tracer
	if mode == Undo && w == 1 {
		tr = trace.New(1 << 14)
		tr.SetMask(trace.Mask(trace.KCommitStart, trace.KCommitMarker, trace.KWPQEnqueue))
	}
	mach := machine.New(machine.Config{
		Trace:   tr,
		Cores:   cores,
		Sockets: sockets,
		L1:      cache.Config{Name: "L1", SizeBytes: 4 << 10, Ways: 2, LatencyCycles: 4},
		L2:      cache.Config{Name: "L2", SizeBytes: 16 << 10, Ways: 4, LatencyCycles: 12},
		L3:      cache.Config{Name: "L3", SizeBytes: 64 << 10, Ways: 8, LatencyCycles: 40},
	})
	cfg := slpmtCfg()
	cfg.Mode = mode
	cfg.CommitWindow = w
	engs := make([]*Engine, cores)
	for i := range engs {
		engs[i] = New(mach.Core(i), cfg)
	}
	mach.OnRemoteStore = func(src int, line mem.Addr) {
		for i, e := range engs {
			if i != src {
				e.CoherenceStore(line)
			}
		}
	}
	if w > 1 && cores > 1 {
		NewEpochGroup(engs)
	}
	check := func(where string) {
		for _, e := range engs {
			checkEpochIndex(t, e, where)
		}
	}
	base := mach.Core(0).Layout.HeapBase
	const words = 384 * mem.WordsPerLine
	attrs := []isa.Attr{isa.Plain, isa.LogFree, isa.LazyLogFree, isa.LazyLogged}
	for txn := 0; txn < 80; txn++ {
		e := engs[rng.Intn(cores)]
		where := fmt.Sprintf("txn %d on core %d", txn, e.m.ID)
		check(where + " begin")
		e.Begin()
		for op := rng.Intn(48) + 1; op > 0; op-- {
			addr := base + mem.Addr(rng.Intn(words))*mem.WordSize
			check(where + " store")
			switch k := rng.Intn(6); k {
			case 0, 1:
				e.LoadU64(addr)
			case 2:
				e.StoreU64(addr, rng.Uint64(), isa.Store, isa.Plain)
			default:
				e.StoreU64(addr, rng.Uint64(), isa.StoreT, attrs[k-2])
			}
		}
		check(where + " commit")
		writes := checkTxScan(t, e, where)
		if rng.Intn(8) == 0 {
			e.Abort()
		} else {
			tr.Reset()
			e.Commit()
			if got := commitDataWrites(tr.Events(), e.m.Layout); tr != nil && !slices.Equal(got, writes) {
				t.Fatalf("%s: commit wrote %#x, whole-cache walk order %#x", where, got, writes)
			}
		}
		if rng.Intn(12) == 0 {
			check(where + " finish")
			e.FinishEpoch()
		}
	}
	for _, e := range engs {
		check("drain")
		e.DrainLazy()
	}
}

func TestCommitScanIndexMatchesWholeCacheWalk(t *testing.T) {
	for _, mode := range []LogMode{Undo, Redo} {
		for _, w := range []int{1, 4, 16} {
			for _, cores := range []int{1, 2, 4} {
				for _, sockets := range []int{1, 2} {
					name := fmt.Sprintf("%v/W%d/%dc%ds", mode, w, cores, sockets)
					t.Run(name, func(t *testing.T) {
						for seed := int64(1); seed <= 3; seed++ {
							runScanProgram(t, seed, mode, w, cores, sockets)
						}
					})
				}
			}
		}
	}
}

// TestAbortedLinesJoinNextScan pins the abandoned-line rule: a log-free
// line an aborted transaction leaves marked is persisted by the next
// commit under the same transaction ID, as a scan by ID would.
func TestAbortedLinesJoinNextScan(t *testing.T) {
	e, m := newEng(slpmtCfg())
	x := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(x, 7, isa.StoreT, isa.LogFree)
	e.Abort()
	for i := 1; i < NumTxIDs; i++ { // cycle back to the aborted ID
		e.Begin()
		e.StoreU64(x+mem.Addr(i)*mem.LineSize, 1, isa.Store, isa.Plain)
		e.Commit()
	}
	if got := m.PM.ReadU64(x); got != 0 {
		t.Fatalf("aborted log-free line durable too early: %d", got)
	}
	e.Begin()
	checkTxScan(t, e, "same-ID commit")
	e.Commit()
	if got := m.PM.ReadU64(x); got != 7 {
		t.Fatalf("same-ID commit left the aborted line volatile: durable %d, want 7", got)
	}
}
