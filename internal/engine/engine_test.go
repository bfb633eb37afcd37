package engine

import (
	"testing"

	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
)

func slpmtCfg() Config {
	return Config{
		Name:        "SLPMT",
		Caps:        isa.Caps{HonorLogFree: true, HonorLazy: true},
		Granularity: Word,
		Mode:        Undo,
		Buffer:      BufferTiered,
	}
}

func fgCfg() Config {
	c := slpmtCfg()
	c.Name = "FG"
	c.Caps = isa.Caps{}
	return c
}

func newEng(cfg Config) (*Engine, *machine.Core) {
	m := machine.New(machine.Config{}).Core(0)
	e := New(m, cfg)
	return e, m
}

func TestTableIOnCacheBits(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	cases := []struct {
		attr    isa.Attr
		kind    isa.Kind
		persist bool
		logged  bool
	}{
		{isa.Plain, isa.Store, true, true},
		{isa.LogFree, isa.StoreT, true, false},
		{isa.LazyLogFree, isa.StoreT, false, false},
		{isa.LazyLogged, isa.StoreT, false, true},
	}
	for i, c := range cases {
		a := base + mem.Addr(i)*mem.LineSize
		e.StoreU64(a, 1, c.kind, c.attr)
		l := m.L1.Peek(a)
		if l == nil {
			t.Fatalf("case %d: line not cached", i)
		}
		if l.Persist != c.persist {
			t.Errorf("case %d: persist bit %v, want %v", i, l.Persist, c.persist)
		}
		if (l.LogBits != 0) != c.logged {
			t.Errorf("case %d: log bits %#x, want logged=%v", i, l.LogBits, c.logged)
		}
		if l.TxID != lineID(0) {
			t.Errorf("case %d: txid %d", i, l.TxID)
		}
	}
	e.Commit()
}

func TestBaselineIgnoresStoreT(t *testing.T) {
	e, m := newEng(fgCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.StoreT, isa.LazyLogFree)
	l := m.L1.Peek(base)
	if !l.Persist || l.LogBits == 0 {
		t.Error("FG baseline must treat storeT as store")
	}
	e.Commit()
	if e.RetainedLazyLines() != 0 {
		t.Error("FG baseline deferred data")
	}
}

func TestWordGranularLogging(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.StoreU64(base+8, 2, isa.Store, isa.Plain)
	if got := m.Stats.LogRecordsCreated; got != 2 {
		t.Errorf("records created = %d, want 2", got)
	}
	// Re-store to a logged word: no new record.
	e.StoreU64(base, 3, isa.Store, isa.Plain)
	if got := m.Stats.LogRecordsCreated; got != 2 {
		t.Errorf("re-store created a record (total %d)", got)
	}
	l := m.L1.Peek(base)
	if l.LogBits != 0x03 {
		t.Errorf("log bits = %#x, want 0x03", l.LogBits)
	}
	e.Commit()
}

func TestLineGranularLogging(t *testing.T) {
	cfg := slpmtCfg()
	cfg.Granularity = Line
	e, m := newEng(cfg)
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.StoreU64(base+32, 2, isa.Store, isa.Plain)
	if got := m.Stats.LogRecordsCreated; got != 1 {
		t.Errorf("line-granular records = %d, want 1", got)
	}
	if got := m.Stats.LogBytesPersisted; got != 0 && got != 72 {
		t.Errorf("unexpected log bytes before commit: %d", got)
	}
	e.Commit()
	if got := m.Stats.LogBytesPersisted; got != 72 {
		t.Errorf("persisted log bytes = %d, want 72 (one line record)", got)
	}
	e.Begin()
	e.Commit()
}

// TestUndoCommitDurability: after Commit returns, every logged and
// log-free store is durable.
func TestUndoCommitDurability(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 11, isa.Store, isa.Plain)
	e.StoreU64(base+mem.LineSize, 22, isa.StoreT, isa.LogFree)
	e.Commit()
	if m.PM.ReadU64(base) != 11 || m.PM.ReadU64(base+mem.LineSize) != 22 {
		t.Error("committed data not durable")
	}
	raw := make([]byte, 256)
	m.PM.Read(m.Layout.LogBase, raw)
	hdr := logfmt.DecodeHeader(raw)
	if hdr.State != logfmt.StateCommitted {
		t.Errorf("log state = %d, want committed", hdr.State)
	}
}

// TestLazyDeferredThenForcedBySignature: lazy data stays volatile after
// commit; a store hitting the retained working set forces it durable
// before proceeding.
func TestLazyDeferredThenForcedBySignature(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	lazyAddr := base
	wsAddr := base + 4*mem.LineSize

	e.Begin()
	e.LoadU64(wsAddr) // read set
	e.StoreU64(lazyAddr, 123, isa.StoreT, isa.LazyLogFree)
	e.Commit()

	if e.RetainedLazyLines() != 1 {
		t.Fatalf("retained lazy lines = %d, want 1", e.RetainedLazyLines())
	}
	if m.PM.ReadU64(lazyAddr) == 123 {
		t.Fatal("lazy data persisted eagerly")
	}

	// A store to the read-set address (outside any transaction, as the
	// paper allows) must force the lazy line durable first.
	e.StoreU64(wsAddr, 9, isa.Store, isa.Plain)
	if m.PM.ReadU64(lazyAddr) != 123 {
		t.Fatal("working-set conflict did not force the lazy persist")
	}
	if e.RetainedLazyLines() != 0 {
		t.Error("retained entry not released")
	}
	if m.Stats.SignatureHits == 0 {
		t.Error("signature hit not counted")
	}
}

// TestLazyForcedByLineOwnerCheck: touching a cache line whose TxID
// belongs to a retained transaction forces its lazy data durable.
func TestLazyForcedByLineOwnerCheck(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 55, isa.StoreT, isa.LazyLogFree)
	e.Commit()
	if m.PM.ReadU64(base) == 55 {
		t.Fatal("lazy data persisted eagerly")
	}
	// A later transaction loading the lazy line triggers the TxID check.
	e.Begin()
	e.LoadU64(base)
	e.Commit()
	if m.PM.ReadU64(base) != 55 {
		t.Error("line-owner check did not force the lazy persist")
	}
	if m.Stats.TxIDCrossAccess == 0 {
		t.Error("cross-access not counted")
	}
}

// TestLazyCancelledByLaterStore: an eager store to a lazily persistent
// line sets the persist bit, so the line persists at that commit
// (§III-C1).
func TestLazyCancelledByLaterStore(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.StoreT, isa.LazyLogFree)
	e.StoreU64(base+8, 2, isa.Store, isa.Plain) // same line, eager
	e.Commit()
	if m.PM.ReadU64(base) != 1 || m.PM.ReadU64(base+8) != 2 {
		t.Error("line with cancelled lazy persistence not durable at commit")
	}
	if e.RetainedLazyLines() != 0 {
		t.Error("cancelled lazy line still tracked")
	}
}

// TestLazyLoggedRecordDiscard: a lazy+logged line still in cache at
// commit has its buffered undo record discarded (§III-B2).
func TestLazyLoggedRecordDiscard(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.StoreT, isa.LazyLogged)
	e.Commit()
	if m.Stats.LogRecordsDiscarded != 1 {
		t.Errorf("discarded = %d, want 1", m.Stats.LogRecordsDiscarded)
	}
	if m.Stats.LogRecordsPersisted != 0 {
		t.Errorf("discarded record reached PM")
	}
}

// TestTxIDRecycleForcesPersist: the fifth transaction reuses the first
// ID, forcing the first transaction's lazy data durable.
func TestTxIDRecycleForcesPersist(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 77, isa.StoreT, isa.LazyLogFree)
	e.Commit()
	for i := 0; i < NumTxIDs-1; i++ {
		e.Begin()
		e.Commit()
	}
	if m.PM.ReadU64(base) == 77 {
		t.Fatal("lazy data persisted too early")
	}
	e.Begin() // reuses ID 0
	e.Commit()
	if m.PM.ReadU64(base) != 77 {
		t.Error("ID recycle did not force the persist")
	}
	if m.Stats.TxIDRecycles == 0 {
		t.Error("recycle not counted")
	}
}

// TestAbortRestoresLoggedData: §V-B.
func TestAbortRestoresLoggedData(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.Commit()
	e.Begin()
	e.StoreU64(base, 2, isa.Store, isa.Plain)
	e.StoreU64(base+mem.LineSize, 3, isa.StoreT, isa.LogFree)
	e.Abort()
	if got := e.LoadU64(base); got != 1 {
		t.Errorf("volatile after abort = %d, want 1", got)
	}
	if m.PM.ReadU64(base) != 1 {
		t.Errorf("durable after abort = %d, want 1", m.PM.ReadU64(base))
	}
	// Log-free data is the application recovery's job; the engine
	// leaves it (here: still volatile or scribbled, but unreachable).
	if m.Stats.TxAborts != 1 {
		t.Error("abort not counted")
	}
}

// TestDuplicateLoggingAfterL3RoundTrip: §III-B1 — a line whose log bits
// were lost in L3 is re-logged on the next store.
func TestDuplicateLoggingAfterL3RoundTrip(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	// Push the line to L3 (same-set stride for both L1 and L2).
	for i := 1; i <= 20; i++ {
		e.LoadU64(base + mem.Addr(i)*64*1024)
	}
	if m.L1.Peek(base) != nil || m.L2.Peek(base) != nil {
		t.Fatal("line still in private caches")
	}
	e.StoreU64(base, 2, isa.Store, isa.Plain)
	if m.Stats.LogDuplicates != 1 {
		t.Errorf("duplicates = %d, want 1", m.Stats.LogDuplicates)
	}
	e.Commit()
}

// TestSpeculativeLogging: with the §III-B1 optimization, evicting a
// partially logged 32-byte group creates speculative records so the
// folded bit survives.
func TestSpeculativeLogging(t *testing.T) {
	cfg := slpmtCfg()
	cfg.Speculative = true
	e, m := newEng(cfg)
	base := m.Layout.HeapBase
	e.Begin()
	// Log 3 of the 4 words of the low group.
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.StoreU64(base+8, 2, isa.Store, isa.Plain)
	e.StoreU64(base+16, 3, isa.Store, isa.Plain)
	// Evict from L1 (8 conflicting lines).
	for i := 1; i <= 8; i++ {
		e.LoadU64(base + mem.Addr(i)*64*64)
	}
	if m.Stats.SpeculativeRecords != 1 {
		t.Errorf("speculative records = %d, want 1", m.Stats.SpeculativeRecords)
	}
	l2 := m.L2.Peek(base)
	if l2 == nil || l2.LogBits&0x01 == 0 {
		t.Error("folded log bit lost despite speculation")
	}
	e.Commit()
}

// TestRedoCommitOrdering: under redo logging, a crash before the commit
// record leaves old durable values; after it, recovery replay yields
// the new ones.
func TestRedoDurability(t *testing.T) {
	cfg := slpmtCfg()
	cfg.Mode = Redo
	e, m := newEng(cfg)
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.Commit()

	e.Begin()
	e.StoreU64(base, 2, isa.Store, isa.Plain)
	// Mid-transaction: durable value must still be old.
	if m.PM.ReadU64(base) != 1 {
		t.Fatalf("redo leaked new value before commit")
	}
	e.Commit()
	if m.PM.ReadU64(base) != 2 {
		t.Fatal("redo commit did not persist new value")
	}
	// The redo log records the final values for replay.
	raw := make([]byte, 4096)
	m.PM.Read(m.Layout.LogBase, raw)
	hdr := logfmt.DecodeHeader(raw)
	if hdr.State != logfmt.StateCommitted || hdr.Mode != logfmt.ModeRedo {
		t.Fatalf("header %+v", hdr)
	}
	recs, err := logfmt.ParseRecords(raw, hdr.Seq)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.Addr == base && len(r.Data) >= 8 && r.Data[0] == 2 {
			found = true
		}
	}
	if !found {
		t.Error("redo log missing final value record")
	}
}

// TestNonTransactionalStoreChecksConflicts: stores outside transactions
// still trigger lazy-persistency enforcement (§III-C).
func TestNonTransactionalStore(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 5, isa.StoreT, isa.LazyLogFree)
	e.Commit()
	e.StoreU64(base, 6, isa.Store, isa.Plain) // outside txn, same line
	if m.PM.ReadU64(base) != 5 {
		t.Error("lazy line not forced durable before the overwrite")
	}
	if got := e.LoadU64(base); got != 6 {
		t.Errorf("volatile = %d, want 6", got)
	}
}

// TestUndoOrderingUnderCrash: mini crash campaign over a single
// transaction — at every persist-event crash point, recovery restores
// either the complete old state or (after the marker) the new one.
func TestUndoOrderingUnderCrash(t *testing.T) {
	run := func(crashAt uint64) (crashed bool, img interface {
		ReadU64(uint64) uint64
	}, total uint64) {
		e, m := newEng(slpmtCfg())
		base := m.Layout.HeapBase
		// Committed baseline.
		e.Begin()
		for i := 0; i < 4; i++ {
			e.StoreU64(base+mem.Addr(i)*mem.LineSize, 100+uint64(i), isa.Store, isa.Plain)
		}
		e.Commit()
		mach := m.Machine()
		startEvents := mach.PersistTotal
		mach.CrashAfterTotal = startEvents + crashAt

		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(machine.CrashSignal); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			e.Begin()
			for i := 0; i < 4; i++ {
				e.StoreU64(base+mem.Addr(i)*mem.LineSize, 200+uint64(i), isa.Store, isa.Plain)
			}
			e.Commit()
		}()
		return crashed, m.PM, mach.PersistTotal - startEvents
	}

	_, _, total := run(1 << 30)
	for pt := uint64(1); pt <= total; pt++ {
		crashed, pm, _ := run(pt)
		if !crashed {
			continue
		}
		e2, m2 := newEng(slpmtCfg())
		_ = e2
		base := m2.Layout.HeapBase
		// Recover: parse the log from the crashed device's state.
		raw := make([]byte, 4096)
		pmDev := pm
		_ = pmDev
		// Read header+records through the image-equivalent interface.
		hdrSeq := pm.ReadU64(m2.Layout.LogBase + logfmt.OffSeq)
		state := pm.ReadU64(m2.Layout.LogBase + logfmt.OffState)
		_ = raw
		old := pm.ReadU64(base)
		if state == logfmt.StateCommitted && hdrSeq == 2 {
			// Post-marker: all new values must already be durable.
			for i := 0; i < 4; i++ {
				if got := pm.ReadU64(uint64(base) + uint64(i)*mem.LineSize); got != 200+uint64(i) {
					t.Fatalf("crash@%d: committed txn incomplete: word %d = %d", pt, i, got)
				}
			}
		} else if state == logfmt.StateActive && hdrSeq == 2 {
			// Pre-marker: old values must be recoverable; this is
			// exercised end-to-end by the recovery package's campaign,
			// so here we only require that any durable new value has a
			// durable undo record (watermark covers it) — checked by
			// the full campaign; minimal sanity: line 0 is either old
			// or new, never garbage.
			if old != 100 && old != 200 {
				t.Fatalf("crash@%d: torn value %d", pt, old)
			}
		}
	}
}

// TestContextSwitch (§V-C): a switch mid-transaction drains the log
// buffer; the transaction resumes and commits normally, and a crash
// right after the switch is recoverable because the records are
// durable.
func TestContextSwitch(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	buffered := len(e.sink.buffered())
	if buffered == 0 {
		t.Fatal("expected a buffered record before the switch")
	}
	e.ContextSwitch()
	if len(e.sink.buffered()) != 0 {
		t.Error("context switch did not drain the log buffer")
	}
	if m.Stats.LogRecordsPersisted == 0 {
		t.Error("drained records did not reach PM")
	}
	// The transaction resumes: more stores, then a normal commit.
	e.StoreU64(base+8, 2, isa.Store, isa.Plain)
	e.Commit()
	if m.PM.ReadU64(base) != 1 || m.PM.ReadU64(base+8) != 2 {
		t.Error("post-switch commit not durable")
	}
	// And the lazy machinery survived the switch.
	e.Begin()
	e.StoreU64(base+mem.LineSize, 9, isa.StoreT, isa.LazyLogFree)
	e.ContextSwitch()
	e.Commit()
	if e.RetainedLazyLines() != 1 {
		t.Error("lazy tracking lost across context switch")
	}
	e.DrainLazy()
}

// TestIncorrectLogFreeAnnotation (§IV-A): wrongly marking a store
// log-free undermines recoverability only within its own transaction —
// "such threats do not span across transaction commits." Before commit,
// the un-logged overwrite cannot be reverted; once the transaction
// commits, subsequent transactions log the line normally again.
func TestIncorrectLogFreeAnnotation(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.Commit()

	// A later transaction incorrectly marks an overwrite log-free...
	e.Begin()
	e.StoreU64(base, 2, isa.StoreT, isa.LogFree)
	before := m.Stats.LogRecordsCreated
	e.Commit()
	if m.Stats.LogRecordsCreated != before {
		t.Error("log-free store created a record")
	}
	// ...but the damage ends at its commit: the NEXT transaction's
	// store to the same word is logged and fully revertible.
	e.Begin()
	e.StoreU64(base, 3, isa.Store, isa.Plain)
	e.Abort()
	if got := e.LoadU64(base); got != 2 {
		t.Errorf("post-abort value = %d, want 2 (the committed value)", got)
	}
	if m.PM.ReadU64(base) != 2 {
		t.Errorf("durable = %d, want 2", m.PM.ReadU64(base))
	}
}

// TestIncorrectLazyAnnotation (§IV-A): wrongly marking a store lazy
// never hurts recoverability — only freshness. A crash after commit may
// lose the up-to-date value, reverting to the last durable one; a crash
// during the transaction is fully handled by the undo log.
func TestIncorrectLazyAnnotation(t *testing.T) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	e.Commit()

	e.Begin()
	e.StoreU64(base, 2, isa.StoreT, isa.LazyLogged) // "incorrectly" lazy
	e.Commit()
	// Crash now: the line is volatile; the durable image holds the OLD
	// committed value — stale but consistent.
	img := m.Crash()
	if got := img.ReadU64(base); got != 1 {
		t.Errorf("crash image = %d, want the stale-but-consistent 1", got)
	}
	// Without a crash, the hardware eventually persists it.
	e.DrainLazy()
	if m.PM.ReadU64(base) != 2 {
		t.Error("lazy value never became durable")
	}
}
