package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/persistmem/slpmt/internal/cache"
	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/logbuf"
	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/signature"
	"github.com/persistmem/slpmt/internal/trace"
)

// Write-set line classes (per-line, a line with any logged word is a
// logged line; Figure 4 orders persists by these classes).
const (
	wsLogged  uint8 = 1 << 0
	wsLogFree uint8 = 1 << 1
)

// retainedTx is a committed transaction whose lazily persistent data is
// still volatile: its working-set signature stays live until every lazy
// line has reached PM (§III-C).
type retainedTx struct {
	id   uint8 // transaction ID (0..NumTxIDs-1)
	seq  uint64
	sig  *signature.Signature
	lazy lazySet // line addresses still to persist
}

// txState is the engine's view of the currently executing transaction.
type txState struct {
	active      bool
	id          uint8
	seq         uint64
	sig         *signature.Signature
	lazyLines   lazySet               // lines with persist bit clear
	writeLines  lineMap               // line -> ws class bits
	loggedWords map[mem.Addr]struct{} // words logged this transaction
}

// lineID encodes a transaction ID into the cache-line TxID field;
// 0 means "no owner" (freshly fetched lines), so IDs are stored +1.
func lineID(id uint8) uint8 { return id + 1 }

// Engine models the SLPMT hardware of one core (or, under other
// Configs, the FG/ATOM/EDE designs of §VI-C). Not safe for concurrent
// use.
type Engine struct {
	cfg  Config
	m    *machine.Core
	w    *logWriter
	sink logSink

	sigs     [NumSignatures]signature.Signature
	cur      txState
	retained []retainedTx // FIFO, oldest first
	nextID   uint8
	seq      uint64

	// suppressed records lines whose L3 writeback was blocked by the
	// redo-mode filter; they must be force-persisted at commit.
	suppressed map[mem.Addr]struct{}

	// Group-commit state (CommitWindow > 1). An epoch spans up to
	// CommitWindow committed transactions in one contiguous slice of
	// the log stream; their ordering persists (watermark sync,
	// durability barrier, data flush, commit marker) are issued once at
	// the epoch close. The maps are nil below W=2, so every lookup on
	// the per-transaction paths stays a nil-map probe.
	epoch        uint64 // current epoch counter (header stamp)
	epochOpen    bool   // an epoch is accepting commits
	epochTxns    int    // transactions committed into the open epoch
	epochClk     uint64 // core clock at epoch open (cycle-budget flush)
	epochLastSeq uint64 // seq of the youngest committed transaction
	txnStartOff  uint64 // running transaction's first record offset
	// epochPending accumulates the committed transactions' eager
	// write-set lines (class bits ORed) until the close's data flush;
	// epochLogged their non-lazy logged lines, which gate evictions
	// (undo: unsynced records; redo: writeback suppression).
	epochPending lineMap
	epochLogged  map[mem.Addr]struct{}
	epochKeyBuf  []mem.Addr
	// group coordinates multi-core closes: non-nil only on clustered
	// engines with CommitWindow > 1, where per-core epochs must commit
	// atomically as a group (see EpochGroup).
	group *EpochGroup
	// onEpochClose fires after an epoch's commit point is durable —
	// the facade hooks the heap's epoch-quarantined frees here.
	onEpochClose func()
	// gseqBuf is the boundary record's payload scratch (the writer
	// copies it out immediately; a field keeps Begin allocation-free).
	gseqBuf [8]byte

	// lazyPool recycles the per-transaction lazy-line sets that Commit
	// hands off to retainedTx entries, so a steady stream of lazy
	// transactions allocates no new maps.
	lazyPool []lazySet

	// scratch is the per-transaction arena for log-record payloads.
	// Records never outlive their transaction (the sink drains at commit
	// and clears at abort; the log writer copies payloads out), so the
	// arena resets at Begin instead of allocating per word.
	scratch    []byte
	scratchOff int

	// wsKeyBuf is reusable scratch holding the write set in address
	// order, the order in which the redo commit persists it.
	wsKeyBuf []mem.Addr

	// hitBuf is the commit scan's scratch: the transaction's lines
	// resolved in the private caches (see txPrivateLines).
	hitBuf []privHit
	// abandoned holds, per transaction ID, the log-free lines an aborted
	// W=1 transaction left in the private caches with its ID and a set
	// persist bit. Abort keeps them (log-free updates are the caller's
	// to repair), so the next commit scan under the same ID visits them
	// too, as the hardware's scan by ID would.
	abandoned [NumTxIDs][]mem.Addr
}

// New wires an engine to a machine. The machine's eviction hooks are
// claimed by the engine.
func New(m *machine.Core, cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{
		cfg:        cfg,
		m:          m,
		suppressed: make(map[mem.Addr]struct{}),
		cur: txState{
			writeLines:  newLineMap(),
			loggedWords: make(map[mem.Addr]struct{}),
		},
	}
	if cfg.CommitWindow > 1 {
		e.epochPending = newLineMap()
		e.epochLogged = make(map[mem.Addr]struct{})
	}
	e.w = newLogWriter(m)
	refresh := e.refreshRecord
	if cfg.Buffer == BufferTiered {
		e.sink = newTieredSink(e.w, refresh)
	} else {
		e.sink = newDirectSink(e.w, refresh)
	}
	m.OnL2Evict = e.onL2Evict
	m.OnL1Demote = e.onL1Demote
	m.OnL3Writeback = e.onL3Writeback
	if cfg.Mode == Redo {
		m.WritebackFilter = e.writebackFilter
	}
	if cfg.CommitWindow > 1 {
		m.OnCoherenceTake = e.onCoherenceTake
	}
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Core returns the underlying core.
func (e *Engine) Core() *machine.Core { return e.m }

// Seq returns the current transaction sequence number.
func (e *Engine) Seq() uint64 { return e.seq }

// grouped reports whether group commit (epoch batching) is active.
func (e *Engine) grouped() bool { return e.cfg.CommitWindow > 1 }

// Epoch returns the current epoch counter (introspection for tests).
func (e *Engine) Epoch() uint64 { return e.epoch }

// refreshRecord gives a record its final payload at spill time: undo
// records keep the old value captured at store time; redo records are
// refreshed to the latest volatile value so replay installs the newest
// data.
func (e *Engine) refreshRecord(r logbuf.Record) logbuf.Record {
	if e.cfg.Mode == Undo {
		return r
	}
	data := e.scratchBytes(len(r.Data))
	e.m.ReadMem(r.Addr, data)
	return logbuf.Record{Addr: r.Addr, Data: data, Speculative: r.Speculative}
}

// The arena's first block is scratchFirst bytes and each later block
// doubles, up to scratchBlock: an engine that runs only short
// transactions (a crash-campaign point) never pays for the large block,
// and one that grows to it rarely grows again.
const (
	scratchFirst = 1 << 9
	scratchBlock = 1 << 16
)

// scratchBytes returns n bytes of transaction-lifetime scratch from the
// arena. Earlier blocks stay alive through the records referencing
// them; the arena as a whole is recycled at Begin.
func (e *Engine) scratchBytes(n int) []byte {
	if e.scratchOff+n > len(e.scratch) {
		size := max(min(2*len(e.scratch), scratchBlock), scratchFirst, n)
		e.scratch = make([]byte, size)
		e.scratchOff = 0
	}
	p := e.scratch[e.scratchOff : e.scratchOff+n : e.scratchOff+n]
	e.scratchOff += n
	return p
}

// Begin starts a durable transaction: allocates a transaction ID (forcing
// lazy persists of a recycled ID's owner, §III-C2) and initializes the
// durable log header so recovery can identify an in-flight transaction.
func (e *Engine) Begin() {
	if e.cur.active {
		panic("engine: nested transactions are not supported")
	}
	if e.group != nil {
		// Clustered group commit numbers transactions from the shared
		// sequence: boundary records carry these values, and recovery
		// relies on them to order interleaved cross-core records.
		e.seq = e.group.nextSeq()
	} else {
		e.seq++
	}
	e.m.Trace(trace.KTxBegin, 0, e.seq)
	id := e.nextID
	e.nextID = (e.nextID + 1) % NumTxIDs
	// Circular ID reuse: if a retained transaction still owns this ID,
	// persist its lazy data (and that of every earlier transaction).
	for i := range e.retained {
		if e.retained[i].id == id {
			e.m.Stats.TxIDRecycles++
			e.persistRetainedThrough(i)
			break
		}
	}
	// Reuse the per-transaction tracking maps and the record-payload
	// arena: Commit hands lazyLines off to a retainedTx (replaced from
	// the recycle pool here), while writeLines/loggedWords never escape
	// the transaction and are merely reset.
	e.resetTxSets()
	if e.cur.lazyLines.m == nil {
		e.cur.lazyLines = e.takeLazySet()
	}
	e.cur.active = true
	e.cur.id = id
	e.cur.seq = e.seq
	e.cur.sig = &e.sigs[id]
	e.scratchOff = 0
	e.cur.sig.Clear()
	mode := uint64(logfmt.ModeUndo)
	if e.cfg.Mode == Redo {
		mode = logfmt.ModeRedo
	}
	if e.grouped() {
		e.beginEpochTxn(mode)
		e.m.Stats.TxBegins++
		return
	}
	// The fresh header resets the watermark to the empty stream, so
	// recovery can never attribute a previous transaction's records to
	// this one. Posted: durable at enqueue under ADR.
	e.m.PushAsync()
	e.w.reset(e.seq)
	e.w.writeHeader(logfmt.Header{
		Magic:     logfmt.Magic,
		Seq:       e.seq,
		State:     logfmt.StateActive,
		Mode:      mode,
		Watermark: logfmt.RecordsStart,
	})
	e.m.PopAsync()
	e.m.Stats.TxBegins++
}

// resetTxSets empties the ended transaction's tracking sets in time
// proportional to its write set: every lazy line is a write-set line,
// and every logged word lies in a logged write-set line.
func (e *Engine) resetTxSets() {
	for _, la := range e.cur.writeLines.keys {
		delete(e.cur.lazyLines.m, la)
		if e.cur.writeLines.m[la]&wsLogged == 0 {
			continue
		}
		if e.cfg.Granularity == Line {
			delete(e.cur.loggedWords, la)
			continue
		}
		for w := 0; w < mem.WordsPerLine; w++ {
			delete(e.cur.loggedWords, la+mem.Addr(w*mem.WordSize))
		}
	}
	e.cur.writeLines.reset()
}

// beginEpochTxn threads a new transaction into the core's epoch
// stream. The first transaction of an epoch opens it with one posted
// header write (the only per-epoch header persist until the close);
// later transactions pay no header write at all — they spill the
// previous transaction's buffered records and remember where their own
// records start. The spill keeps the stream partitioned by
// transaction, which the forced-close split and the abort path rely
// on: every record below txnStartOff belongs to an earlier transaction
// of the window.
func (e *Engine) beginEpochTxn(mode uint64) {
	e.m.PushAsync()
	if e.epochOpen {
		e.sink.spill()
	} else {
		e.epoch++
		e.epochOpen = true
		e.epochTxns = 0
		e.epochClk = e.m.Clk
		e.w.reset(e.seq)
		e.w.writeHeader(logfmt.Header{
			Magic:       logfmt.Magic,
			Seq:         e.seq,
			State:       logfmt.StateActive,
			Mode:        mode,
			Watermark:   logfmt.RecordsStart,
			Epoch:       e.epoch,
			CommittedTo: logfmt.RecordsStart,
		})
	}
	e.w.seq = e.seq
	e.txnStartOff = e.w.nextOff
	// Every grouped transaction opens with a boundary record: an
	// 8-byte payload carrying its sequence number at the sentinel
	// address. The stream stays partitioned by transaction even after
	// the log bits blur across the window, and recovery can order the
	// units of different cores exactly (the group numbers transactions
	// globally). txnStartOff points AT the boundary, so the forced-
	// close split and the abort suffix both carry their sentinel.
	binary.LittleEndian.PutUint64(e.gseqBuf[:], e.seq)
	e.w.append(logbuf.Record{Addr: logfmt.BoundaryAddr, Data: e.gseqBuf[:]})
	e.m.PopAsync()
}

// onCoherenceTake runs before a remote core's bus request takes a
// dirty line out of this core's private caches, where the owner's
// coherence writeback would persist the data. Under group commit the
// line may carry values committed into the still-open epoch whose log
// records are not yet covered by the durable watermark (records spill
// only at the next Begin), so the data persist would break the
// epoch-granular log-before-data invariant; the records are made
// durable first — posted writes, since enqueue order is the ADR
// durability order. Redo mode goes further: logged epoch data must not
// reach PM before the epoch's commit point at all, so the take is
// vetoed and the line joins the suppressed set that the close
// force-persists. Installed only above W=1; at W=1 commit cleans every
// logged line before another core can take it.
func (e *Engine) onCoherenceTake(addr mem.Addr) bool {
	_, epochLine := e.epochLogged[addr]
	if epochLine || e.sink.hasLine(addr) {
		e.m.PushAsync()
		e.sink.flushLine(addr)
		e.m.PopAsync()
	}
	if e.cfg.Mode == Redo {
		if e.cur.active {
			if cls, ok := e.cur.writeLines.m[addr]; ok && cls&wsLogged != 0 {
				e.suppressed[addr] = struct{}{}
				return false
			}
		}
		if epochLine {
			e.suppressed[addr] = struct{}{}
			return false
		}
	}
	return true
}

// Load performs a transactional (or, outside a transaction, plain) read
// of len(p) bytes at addr.
func (e *Engine) Load(addr mem.Addr, p []byte) {
	e.m.Stats.Loads++
	e.m.Tick(e.cfg.ComputeCyclesPerOp)
	mem.LineRange(addr, len(p), func(line mem.Addr, off, n int) {
		l := e.m.AccessLine(line, false)
		e.checkLineOwner(l)
		if e.cur.active {
			e.cur.sig.Add(line)
		}
	})
	e.m.ReadMem(addr, p)
}

// LoadU64 reads one little-endian word.
func (e *Engine) LoadU64(addr mem.Addr) uint64 {
	var b [8]byte
	e.Load(addr, b[:])
	v := uint64(0)
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// Store performs a store or storeT of p at addr within the current
// transaction (Table I semantics, subject to the scheme's capabilities).
// Outside a transaction the data is written volatile without logging.
func (e *Engine) Store(addr mem.Addr, p []byte, kind isa.Kind, attr isa.Attr) {
	if kind == isa.StoreT {
		e.m.Stats.StoreTs++
	} else {
		e.m.Stats.Stores++
	}
	e.m.Tick(e.cfg.ComputeCyclesPerOp)
	if kind == isa.StoreT {
		e.m.Trace(trace.KStoreT, addr, uint64(len(p)))
	} else {
		e.m.Trace(trace.KStore, addr, uint64(len(p)))
	}
	bits := e.cfg.Caps.ResolveFor(kind, attr)
	off := 0
	mem.LineRange(addr, len(p), func(line mem.Addr, lineOff, n int) {
		a := line + mem.Addr(lineOff)
		e.storeOne(a, p[off:off+n], bits)
		off += n
	})
}

// StoreU64 writes one little-endian word.
func (e *Engine) StoreU64(addr mem.Addr, v uint64, kind isa.Kind, attr isa.Attr) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
	e.Store(addr, b[:], kind, attr)
}

// storeOne handles the part of a store that lies within one cache line.
//
//slpmt:noalloc
func (e *Engine) storeOne(a mem.Addr, data []byte, bits isa.Bits) {
	line := mem.LineAddr(a)
	// Lazy-persistency conflict detection: before updating data in a
	// retained transaction's working set, its lazy lines must persist
	// (§III-C3).
	e.checkStoreConflict(line)

	l := e.m.AccessLine(a, true)
	e.checkLineOwner(l)

	if !e.cur.active {
		// Non-transactional store: volatile write only (the line will
		// reach PM by natural writeback or an explicit persist).
		e.m.WriteMem(a, data)
		return
	}

	if bits.Log {
		prev := e.m.SetCause(profile.CauseLogAppend)
		if e.cfg.Buffer == BufferTiered {
			// The log buffer decouples logging from execution: spills
			// are posted by the buffer engine (§III-B2).
			e.m.PushAsync()
			e.logStore(l, a, len(data))
			e.m.PopAsync()
		} else {
			// No buffer (EDE): log writes leave through the core's
			// store path and feel queue backpressure in program order.
			e.m.PushStream()
			e.logStore(l, a, len(data))
			e.m.PopStream()
		}
		e.m.SetCause(prev)
	}
	if bits.Persist {
		l.Persist = true
		delete(e.cur.lazyLines.m, line)
	} else if !l.Persist {
		// storeT with lazy set and no earlier eager store to this line:
		// the line is lazily persistent (§III-C1; a later store or
		// eager storeT cancels this, handled above).
		e.cur.lazyLines.m[line] = struct{}{}
	}
	l.TxID = lineID(e.cur.id)
	e.cur.sig.Add(line)
	cls := wsLogFree
	if bits.Log {
		cls = wsLogged
	}
	e.cur.writeLines.or(line, cls) //slpmt:noalloc-escape-ok: key-list growth is amortized; steady state reuses the slice
	e.m.WriteMem(a, data)
}

// logStore creates the undo/redo records a store requires: the unlogged
// words it touches (word granularity) or the whole line (line
// granularity). Old values are captured before the store's data is
// written.
//
//slpmt:noalloc
func (e *Engine) logStore(l *cache.Line, a mem.Addr, size int) {
	line := mem.LineAddr(a)
	var mask uint8
	if e.cfg.Granularity == Line {
		mask = cache.L1LogMaskFull
	} else {
		mask = mem.WordMask(a, size)
	}
	missing := mask &^ l.LogBits
	if missing == 0 {
		return
	}
	if e.cfg.Granularity == Line {
		data := e.scratchBytes(mem.LineSize) //slpmt:noalloc-escape-ok: arena growth is amortized; steady state reuses the block
		e.m.ReadMem(line, data)
		e.sink.add(logbuf.Record{Addr: line, Data: data})
		e.m.Trace(trace.KLogAppend, line, mem.LineSize)
		e.m.Stats.LogRecordsCreated++
		if _, dup := e.cur.loggedWords[line]; dup {
			e.m.Stats.LogDuplicates++
		}
		e.cur.loggedWords[line] = struct{}{}
	} else {
		for w := 0; w < mem.WordsPerLine; w++ {
			if missing&(1<<uint(w)) == 0 {
				continue
			}
			wa := line + mem.Addr(w*mem.WordSize)
			data := e.scratchBytes(mem.WordSize) //slpmt:noalloc-escape-ok: arena growth is amortized; steady state reuses the block
			e.m.ReadMem(wa, data)
			e.sink.add(logbuf.Record{Addr: wa, Data: data})
			e.m.Trace(trace.KLogAppend, wa, mem.WordSize)
			e.m.Stats.LogRecordsCreated++
			if _, dup := e.cur.loggedWords[wa]; dup {
				e.m.Stats.LogDuplicates++
			}
			e.cur.loggedWords[wa] = struct{}{}
		}
	}
	l.LogBits |= mask
}

// checkLineOwner implements the per-access transaction-ID check
// (§III-C3): touching a cache line owned by an earlier transaction that
// still has volatile lazy data forces that data (and all older lazy
// data) to persist.
func (e *Engine) checkLineOwner(l *cache.Line) {
	if l.TxID == 0 {
		return
	}
	if e.cur.active && l.TxID == lineID(e.cur.id) {
		return
	}
	owner := l.TxID - 1
	for i := range e.retained {
		if e.retained[i].id == owner {
			e.m.Stats.TxIDCrossAccess++
			e.persistRetainedThrough(i)
			return
		}
	}
}

// checkStoreConflict implements the signature check (§III-C3): a store
// whose address matches a retained transaction's working set forces that
// transaction's lazy data to persist first.
func (e *Engine) checkStoreConflict(line mem.Addr) {
	last := -1
	for i := range e.retained {
		if e.retained[i].sig.MayContain(line) {
			e.m.Stats.SignatureHits++
			// One event per hit keeps the streamed per-interval count
			// equal to the Stats.SignatureHits delta; arg carries the
			// matched transaction's drain depth (oldest-first index + 1).
			e.m.Trace(trace.KSigHit, line, uint64(i+1))
			last = i
		}
	}
	if last >= 0 {
		e.persistRetainedThrough(last)
	}
}

// CoherenceStore runs the signature check for a store issued by a
// remote core (§III-C3 across cores): the coherence write request is
// visible to every core's SLPMT unit, and a hit against one of this
// engine's retained transactions forces its lazy data to persist before
// the remote store proceeds. The drain is posted on this engine's
// core timeline, like any lazy drain.
func (e *Engine) CoherenceStore(line mem.Addr) {
	e.checkStoreConflict(line)
}

// persistRetainedThrough persists the lazy data of retained transactions
// 0..idx (oldest first, as §III-C2 requires) and releases their IDs and
// signatures.
func (e *Engine) persistRetainedThrough(idx int) {
	// Under group commit a forced drain persists lazy lines whose log
	// records were discarded at commit; those commits must first stop
	// being rollback-able, so the open epoch force-closes before any
	// lazy data lands (the §III-C drains are the "forced drain from a
	// remote conflict" interaction).
	e.forceCloseEpoch()
	// Lazy drains are posted persists off the critical path (§III-C3).
	e.m.Trace(trace.KLazyDrainStart, 0, uint64(idx+1))
	defer e.m.Trace(trace.KLazyDrainEnd, 0, uint64(idx+1))
	prev := e.m.SetCause(profile.CauseLazyDrain)
	defer e.m.SetCause(prev)
	e.m.PushAsync()
	defer e.m.PopAsync()
	for i := 0; i <= idx; i++ {
		r := &e.retained[i]
		for _, la := range r.lazy.keys {
			if _, ok := r.lazy.m[la]; !ok {
				continue // written back since the commit
			}
			if e.m.PersistLine(la) {
				e.m.Stats.LazyLinePersists++
			} else {
				e.m.Stats.LazyLinesElided++
			}
		}
		r.sig.Clear()
		r.lazy.reset()
		e.lazyPool = append(e.lazyPool, r.lazy)
		r.lazy = lazySet{}
	}
	e.retained = append(e.retained[:0], e.retained[idx+1:]...)
}

// takeLazySet returns an empty lazy-line set, recycled from released
// retained transactions when possible.
func (e *Engine) takeLazySet() lazySet {
	if n := len(e.lazyPool); n > 0 {
		s := e.lazyPool[n-1]
		e.lazyPool = e.lazyPool[:n-1]
		return s
	}
	return lazySet{m: make(map[mem.Addr]struct{})}
}

// DrainLazy persists every retained transaction's lazy data — the effect
// the paper obtains by running NumTxIDs empty transactions. Harnesses
// call it at the end of the measured region so deferred traffic is
// accounted.
func (e *Engine) DrainLazy() {
	e.forceCloseEpoch()
	if len(e.retained) > 0 {
		e.persistRetainedThrough(len(e.retained) - 1)
	}
}

// RetainedLazyLines returns the number of lazy lines still volatile
// (introspection for tests).
func (e *Engine) RetainedLazyLines() int {
	n := 0
	for i := range e.retained {
		n += len(e.retained[i].lazy.m)
	}
	return n
}

// onL1Demote implements the speculative-logging optimization (§III-B1):
// before an L1 line's log bits fold to L2 granularity, partially logged
// 32-byte groups are rounded up by logging their remaining words, so the
// folded bit is preserved and re-fetch does not re-log.
func (e *Engine) onL1Demote(l *cache.Line) {
	if !e.cfg.Speculative || !e.cur.active || l.LogBits == 0 {
		return
	}
	prev := e.m.SetCause(profile.CauseLogAppend)
	defer e.m.SetCause(prev)
	e.m.PushAsync()
	defer e.m.PopAsync()
	if l.TxID != lineID(e.cur.id) {
		return
	}
	for g := 0; g < 2; g++ {
		group := uint8(0x0F << uint(4*g))
		got := l.LogBits & group
		if got == 0 || got == group {
			continue
		}
		for w := 4 * g; w < 4*(g+1); w++ {
			bit := uint8(1) << uint(w)
			if l.LogBits&bit != 0 {
				continue
			}
			wa := l.Addr + mem.Addr(w*mem.WordSize)
			data := e.scratchBytes(mem.WordSize)
			e.m.ReadMem(wa, data)
			e.sink.add(logbuf.Record{Addr: wa, Data: data, Speculative: true})
			e.m.Stats.SpeculativeRecords++
			l.LogBits |= bit
		}
	}
}

// onL2Evict is the hardware action when a line leaves the private
// caches: buffered log records for the line are made durable, and (undo
// mode) a persist-bit line is persisted before the eviction (§III-A).
func (e *Engine) onL2Evict(l *cache.Line) {
	// Eviction handling is background hardware activity.
	e.m.PushAsync()
	defer e.m.PopAsync()
	if l.LogBits != 0 || e.sink.hasLine(l.Addr) {
		e.sink.flushLine(l.Addr)
	} else if _, ok := e.epochLogged[l.Addr]; ok {
		// A line committed into the open epoch evicts: its records were
		// spilled at the next Begin (log bits already cleared), but the
		// watermark may not cover them yet — sync before the data line
		// can reach PM.
		e.sink.flushLine(l.Addr)
	}
	if !l.Persist {
		return
	}
	if e.cfg.Mode == Redo {
		if e.cur.active {
			if cls, ok := e.cur.writeLines.m[l.Addr]; ok && cls&wsLogged != 0 {
				// Redo-logged data must not reach PM before the commit
				// record; the line stays dirty and its L3 writeback is
				// suppressed by the filter.
				return
			}
		}
		if _, ok := e.epochLogged[l.Addr]; ok {
			// Same fence at epoch granularity: data logged by a committed
			// window transaction waits for the epoch's commit marker.
			return
		}
	}
	e.m.ForcePersistLine(l.Addr)
	e.m.Stats.EvictLinePersists++
	l.Persist = false
	l.State = cache.Exclusive
}

// onL3Writeback retires lazy tracking for a line that reached PM by
// natural cache overflow.
func (e *Engine) onL3Writeback(addr mem.Addr) {
	for i := range e.retained {
		delete(e.retained[i].lazy.m, addr)
	}
}

// writebackFilter suppresses L3 writebacks of the current redo
// transaction's logged lines.
func (e *Engine) writebackFilter(addr mem.Addr) bool {
	if e.cur.active {
		if cls, ok := e.cur.writeLines.m[addr]; ok && cls&wsLogged != 0 {
			e.suppressed[addr] = struct{}{}
			return false
		}
	}
	if _, ok := e.epochLogged[addr]; ok {
		// Logged data committed into the open epoch must not reach PM
		// through a natural L3 writeback before the epoch's marker.
		e.suppressed[addr] = struct{}{}
		return false
	}
	return true
}

// Commit makes the transaction durable, enforcing the Figure 4 persist
// ordering for the configured log mode, discarding log records of lazily
// persistent lines, and retaining the working-set signature if lazy data
// remains volatile.
func (e *Engine) Commit() {
	if !e.cur.active {
		panic("engine: Commit outside a transaction")
	}
	e.m.Trace(trace.KCommitStart, 0, e.cur.seq)
	// Discard buffered records belonging to lazily persistent lines
	// (§III-B2): their data will not persist at commit, so an undo
	// record for them is unnecessary — the data is recoverable anyway.
	if len(e.cur.lazyLines.m) > 0 {
		e.cur.lazyLines.list(e.cur.writeLines.keys)
	}
	for _, la := range e.cur.lazyLines.keys {
		if n := e.sink.discardLine(la); n > 0 {
			e.m.Stats.LogRecordsDiscarded += uint64(n)
		}
	}
	if e.grouped() {
		e.commitGrouped()
	} else if e.cfg.Mode == Undo {
		e.commitUndo()
	} else {
		e.commitRedo()
	}
	e.abandoned[e.cur.id] = e.abandoned[e.cur.id][:0] // retired by the scan
	// Retain the working set while lazy data is volatile (§III-C). The
	// lazy set's ownership moves to the retained entry; Begin replaces
	// it from the recycle pool.
	if len(e.cur.lazyLines.m) > 0 {
		e.m.Stats.LazyLinesDeferred += uint64(len(e.cur.lazyLines.m))
		for _, la := range e.cur.lazyLines.keys {
			e.m.Trace(trace.KLazyDefer, la, e.cur.seq)
		}
		e.retained = append(e.retained, retainedTx{
			id:   e.cur.id,
			seq:  e.cur.seq,
			sig:  e.cur.sig,
			lazy: e.cur.lazyLines,
		})
		e.cur.lazyLines = lazySet{}
	} else {
		e.cur.sig.Clear()
	}
	e.cur.active = false
	e.m.Stats.TxCommits++
	e.m.Trace(trace.KTxCommit, 0, e.cur.seq)
	e.mirrorBufferStats()
	if e.grouped() && (e.epochTxns >= e.cfg.CommitWindow ||
		(e.cfg.EpochCycleBudget > 0 && e.m.Clk-e.epochClk >= e.cfg.EpochCycleBudget)) {
		e.closeEpoch()
	}
}

// mirrorBufferStats copies the tiered buffer's activity deltas into the
// machine counters so reports see coalescing behaviour.
func (e *Engine) mirrorBufferStats() {
	ts, ok := e.sink.(*tieredSink)
	if !ok {
		return
	}
	s := ts.stats()
	e.m.Stats.LogRecordsCoalesced = s.Coalesced
	e.m.Stats.LogBufferStalls = s.Stalls
}

// commitUndo: logs -> logged+log-free data lines -> commit record. The
// log drain streams through the buffer's packing engine (no per-line
// acknowledgement; one durability barrier at the end), then the data
// lines are persisted with per-line coherence acknowledgements.
func (e *Engine) commitUndo() {
	// Stage 1: drain the log buffer; the ordering barrier (Figure 4:
	// logs before logged data lines) waits for the streamed lines'
	// completion once, not per line — the commit engine pipelines.
	prev := e.m.SetCause(profile.CauseLogPersist)
	e.m.PushStream()
	e.sink.drain()
	e.m.PopStream()
	e.m.SetCause(prev)
	e.m.AckBarrier()
	// Stage 2: persist the marked data lines. The commit scan walks the
	// private caches line by line, issuing one coherence-level persist
	// request per line and waiting for its completion — the serialized
	// critical path that lazy persistency takes transactions off of.
	prev = e.m.SetCause(profile.CauseCommitData)
	e.persistMarkedLines()
	e.m.SetCause(prev)
	e.writeCommitMarker()
}

// commitRedo: log-free lines -> logs -> commit record -> logged lines.
func (e *Engine) commitRedo() {
	// 1. Log-free lines must reach PM before the logged data (Fig. 4).
	prev := e.m.SetCause(profile.CauseCommitData)
	e.wsKeyBuf = e.cur.writeLines.sorted(e.wsKeyBuf)
	for _, la := range e.wsKeyBuf {
		if e.cur.writeLines.m[la]&wsLogged != 0 {
			continue
		}
		if _, lazy := e.cur.lazyLines.m[la]; lazy {
			continue
		}
		if e.m.PersistLine(la) {
			e.m.Stats.EagerLinePersists++
		}
	}
	// 2. Redo records (refreshed to final values) and commit marker.
	e.m.SetCause(profile.CauseLogPersist)
	e.m.PushStream()
	e.sink.drain()
	e.m.PopStream()
	e.m.SetCause(prev)
	e.m.AckBarrier()
	e.writeCommitMarker()
	// 3. Logged data lines (in-place update is now safe; wsKeyBuf still
	// holds the sorted write set from stage 1).
	prev = e.m.SetCause(profile.CauseCommitData)
	for _, la := range e.wsKeyBuf {
		if e.cur.writeLines.m[la]&wsLogged == 0 {
			continue
		}
		if _, lazy := e.cur.lazyLines.m[la]; lazy {
			continue
		}
		if _, wasSuppressed := e.suppressed[la]; wasSuppressed {
			e.m.ForcePersistLine(la)
			e.m.Stats.EagerLinePersists++
		} else if e.m.PersistLine(la) {
			e.m.Stats.EagerLinePersists++
		}
	}
	e.m.SetCause(prev)
	clear(e.suppressed)
	e.clearTxMeta()
}

// commitGrouped retires the transaction into the open epoch, deferring
// every ordering persist (watermark sync, durability barrier, data
// flush, commit marker) to the epoch close. Only cache metadata moves:
// log bits clear so the next transaction in the window logs its own
// old/new values for shared lines (making the epoch's record stream
// reversible/replayable as a whole), while persist bits survive until
// the close's data flush. The transaction's eager write-set lines and
// its non-lazy logged lines accumulate in the epoch sets.
func (e *Engine) commitGrouped() {
	for _, h := range e.txPrivateLines() {
		h.line.LogBits = 0
	}
	for _, la := range e.cur.writeLines.keys {
		if _, lazy := e.cur.lazyLines.m[la]; lazy {
			// Lazy lines keep their W=1 contract: no persist at any
			// commit point, records discarded, structure-recoverable.
			continue
		}
		cls := e.cur.writeLines.m[la]
		e.epochPending.or(la, cls)
		if cls&wsLogged != 0 {
			e.epochLogged[la] = struct{}{}
		}
	}
	e.epochTxns++
	e.epochLastSeq = e.cur.seq
}

// forceCloseEpoch seals the open epoch ahead of an operation that
// needs the committed window durable (forced lazy drains, context
// switches, harness durability boundaries). A no-op below W=2 or when
// nothing has committed into the epoch. With a transaction mid-flight
// the stream splits at its first record and the epoch reopens around
// it.
func (e *Engine) forceCloseEpoch() {
	if !e.grouped() || !e.epochOpen || e.epochTxns == 0 {
		return
	}
	e.closeEpoch()
}

// FinishEpoch force-closes the open group-commit epoch, making every
// committed transaction of the window durable. Harnesses call it at
// durability boundaries (end of a setup phase, measured-region edges).
func (e *Engine) FinishEpoch() { e.forceCloseEpoch() }

// SetEpochCloseHook registers f to run after every epoch close, once
// the epoch's commit point is durable. The facade parks the heap's
// committed frees until this point (see txheap.EpochQuarantine):
// released at commit they could be reused — and scribbled with
// log-free stores — inside the same window, while the durable state
// still reaches the old blocks.
func (e *Engine) SetEpochCloseHook(f func()) { e.onEpochClose = f }

// closeEpoch seals the open epoch with the amortized ordering
// sequence of Figure 4 lifted to epoch granularity: one log drain +
// watermark sync, one durability barrier, the committed transactions'
// accumulated data persists, and a single commit-marker header write
// advancing CommittedTo over the whole window. With a transaction
// still running (a forced close) the stream instead splits at its
// first record: the header stays ACTIVE under a fresh epoch number
// with CommittedTo covering exactly the committed prefix, so recovery
// rolls back (undo) or ignores (redo) precisely the in-flight suffix.
// Clustered engines route through the group: cross-core value flow
// inside a window means per-core epochs must become durable together
// or not at all.
func (e *Engine) closeEpoch() {
	if e.group != nil {
		e.group.close(e)
		return
	}
	e.prepareSync()
	e.preparePersist()
	e.finishClose()
}

// prepareSync is the first phase of an epoch close: the window's one
// log drain + watermark sync and durability barrier. In a group close
// EVERY engine syncs before ANY engine persists data — a data line
// can hold words whose only undo records live in a peer's stream (the
// line migrated mid-window), and persisting it while those records
// are short of the peer's watermark would make the words unrecoverable
// if the crash fell in between.
func (e *Engine) prepareSync() {
	prevEpoch := e.m.SetCause(profile.CauseLogEpoch)
	e.epochKeyBuf = e.epochPending.sorted(e.epochKeyBuf)

	// The window's one drain + sync; the barrier charges to log.epoch
	// (the AckBarrier picks up the active context) so the amortization
	// is visible per-cause next to the per-transaction log.sync bucket.
	prev := e.m.SetCause(profile.CauseLogPersist)
	e.m.PushStream()
	e.sink.drain()
	e.m.PopStream()
	e.m.SetCause(prev)
	e.m.AckBarrier()
	e.m.SetCause(prevEpoch)
}

// preparePersist is the second phase of an epoch close: the data
// persists that must precede the epoch's commit point. Undo mode
// persists the committed transactions' accumulated lines (their
// records are durably visible after prepareSync — lines shared with a
// still-running transaction are safe to persist mid-flight, a crash
// rolls the suffix back). Redo mode persists only the log-free lines:
// not covered by any record, they must be durable by the commit
// point, while logged lines wait for it.
func (e *Engine) preparePersist() {
	prevEpoch := e.m.SetCause(profile.CauseLogEpoch)
	prev := e.m.SetCause(profile.CauseCommitData)
	for _, la := range e.epochKeyBuf {
		if e.cfg.Mode == Redo && e.epochPending.m[la]&wsLogged != 0 {
			continue
		}
		if e.m.PersistLine(la) {
			e.m.Stats.EagerLinePersists++
		}
	}
	e.m.SetCause(prev)
	e.m.SetCause(prevEpoch)
}

// finishClose is the back half of an epoch close: the commit point
// (solo engines write their commit-marker header here; grouped
// engines had their commit point in the shared descriptor persist and
// the header write merely catches the durable header up) and
// everything ordered after it — redo logged-data persists, cache
// metadata retirement, epoch bookkeeping. A transaction running
// through the close reopens the stream around itself.
func (e *Engine) finishClose() {
	reopen := e.cur.active
	mode := uint64(logfmt.ModeUndo)
	if e.cfg.Mode == Redo {
		mode = logfmt.ModeRedo
	}
	prevEpoch := e.m.SetCause(profile.CauseLogEpoch)

	closed := e.epoch
	committedEnd := e.w.nextOff
	hdr := logfmt.Header{
		Magic:     logfmt.Magic,
		Mode:      mode,
		Watermark: e.w.nextOff,
		Epoch:     e.epoch,
	}
	if reopen {
		committedEnd = e.txnStartOff
		e.epoch++
		hdr.Epoch = e.epoch
		hdr.Seq = e.cur.seq
		hdr.State = logfmt.StateActive
		hdr.CommittedTo = e.txnStartOff
	} else {
		hdr.Seq = e.epochLastSeq
		hdr.State = logfmt.StateCommitted
		hdr.CommittedTo = e.w.nextOff
	}
	prev := e.m.SetCause(profile.CauseCommitMarker)
	e.w.writeHeader(hdr)
	e.m.SetCause(prev)

	if e.cfg.Mode == Redo {
		// Logged data lines persist only after the commit point. A line
		// a running transaction is also logging stays volatile (its new
		// epoch's commit point is not durable). Solo engines leave such
		// lines to the sharer's own stream — same stream, no reset
		// before a full close persists them. In a group the sharer is a
		// DIFFERENT core whose stream cannot cover this one's reset, so
		// the committed value is pinned into PM straight from the
		// records (durable-only; the volatile line keeps the in-flight
		// data).
		prev = e.m.SetCause(profile.CauseCommitData)
		var skipped []mem.Addr
		for _, la := range e.epochKeyBuf {
			if e.epochPending.m[la]&wsLogged == 0 {
				continue
			}
			if e.activeLogged(la) {
				if e.group != nil {
					skipped = append(skipped, la)
				}
				continue
			}
			if _, wasSuppressed := e.suppressed[la]; wasSuppressed {
				e.m.ForcePersistLine(la)
				e.m.Stats.EagerLinePersists++
				delete(e.suppressed, la)
			} else if e.m.PersistLine(la) {
				e.m.Stats.EagerLinePersists++
			}
		}
		if len(skipped) > 0 {
			e.shadowPersistCommitted(skipped, committedEnd)
			for _, la := range skipped {
				delete(e.suppressed, la)
			}
		}
		e.m.SetCause(prev)
	}
	e.clearEpochPersistBits()

	e.m.Trace(trace.KEpochClose, mem.Addr(mode-logfmt.ModeUndo), closed)
	e.m.Stats.EpochCloses++
	for _, la := range e.epochPending.keys { // epochLogged ⊆ epochPending
		delete(e.epochLogged, la)
	}
	e.epochPending.reset()
	e.epochTxns = 0
	if reopen {
		e.epochClk = e.m.Clk
	} else {
		e.epochOpen = false
	}
	e.m.SetCause(prevEpoch)
	if e.onEpochClose != nil {
		e.onEpochClose()
	}
}

// activeLogged reports whether the line is logged by a transaction
// running through the close — this engine's own, or any group peer's.
func (e *Engine) activeLogged(la mem.Addr) bool {
	if e.group != nil {
		return e.group.activeLogged(la)
	}
	if !e.cur.active {
		return false
	}
	cls, ok := e.cur.writeLines.m[la]
	return ok && cls&wsLogged != 0
}

// shadowPersistCommitted pins the committed values of the given lines
// into PM from this stream's own records: the committed region
// [RecordsStart, to) is replayed over the lines' durable images (last
// record per word wins — redo records carry new values) and the
// results are persisted WITHOUT touching the volatile lines, which
// hold a running transaction's newer, uncommitted data.
func (e *Engine) shadowPersistCommitted(lines []mem.Addr, to uint64) {
	raw := logfmt.ReadPrefix(e.m.PM, e.m.Layout.LogBase, e.m.Layout.LogSize, to)
	recs, err := logfmt.ParseRegion(raw, logfmt.RecordsStart, to)
	if err != nil {
		panic(fmt.Sprintf("engine: corrupt own log at epoch close: %v", err))
	}
	img := make(map[mem.Addr][]byte, len(lines))
	for _, la := range lines {
		buf := make([]byte, mem.LineSize)
		e.m.PM.Read(la, buf)
		img[la] = buf
	}
	for _, r := range recs {
		if logfmt.IsBoundary(r) {
			continue
		}
		src := 0
		mem.LineRange(r.Addr, len(r.Data), func(line mem.Addr, off, n int) {
			if buf, ok := img[line]; ok {
				copy(buf[off:off+n], r.Data[src:src+n])
			}
			src += n
		})
	}
	for _, la := range lines { // lines arrive sorted (epochKeyBuf order)
		e.m.PersistShadow(la, img[la])
	}
}

// clearEpochPersistBits retires the persist bits of the epoch's
// pending lines after the close's data flush, mirroring the W=1
// commit scan's metadata clear.
func (e *Engine) clearEpochPersistBits() {
	for _, la := range e.epochPending.keys {
		if l, _ := e.privateLine(la); l != nil {
			l.Persist = false
		}
	}
}

// privHit is one of the transaction's lines found in the private
// caches, with its position in the commit scan's walk order.
type privHit struct {
	pos  uint64 // level<<32 | set·ways+way
	line *cache.Line
}

// privateLine returns the line holding la in this core's private caches
// and its position in an L1-then-L2, (set, way)-ordered walk, or nil.
// A line lives in exactly one level, so the first hit is the only one.
func (e *Engine) privateLine(la mem.Addr) (*cache.Line, uint64) {
	if l, slot := e.m.L1.PeekSlot(la); l != nil {
		return l, 1<<32 | uint64(slot)
	}
	if l, slot := e.m.L2.PeekSlot(la); l != nil {
		return l, 2<<32 | uint64(slot)
	}
	return nil, 0
}

// txPrivateLines models the hardware's commit scan (§II): it returns the
// private-cache lines that carry the running transaction's ID. Only
// lines the transaction stored to can carry it — stores are the one
// place the ID is set, a line leaving L2 loses its metadata, and every
// commit scan clears the bits it acts on — so the scan resolves the
// write set (plus lines an aborted same-ID predecessor left marked)
// instead of walking every private line. The hits come back in no
// particular order; callers whose actions are ordered sort by pos.
func (e *Engine) txPrivateLines() []privHit {
	id := lineID(e.cur.id)
	hits := e.hitBuf[:0]
	// A line both abandoned and rewritten is visited twice; every action
	// on it is idempotent, so the second visit is a no-op.
	for _, lines := range [2][]mem.Addr{e.cur.writeLines.keys, e.abandoned[e.cur.id]} {
		for _, la := range lines {
			if l, pos := e.privateLine(la); l != nil && l.TxID == id {
				hits = append(hits, privHit{pos, l})
			}
		}
	}
	e.hitBuf = hits
	return hits
}

// persistMarkedLines is the undo commit scan: it persists every line of
// the transaction whose persist bit is set and clears its metadata. The
// persists go out in the hardware walk's (level, set, way) order, which
// the WPQ timing depends on.
func (e *Engine) persistMarkedLines() {
	hits := e.txPrivateLines()
	slices.SortFunc(hits, func(a, b privHit) int { return cmp.Compare(a.pos, b.pos) })
	for _, h := range hits {
		l := h.line
		if l.Persist {
			if e.m.PersistLine(l.Addr) {
				e.m.Stats.EagerLinePersists++
			}
			l.Persist = false
		}
		l.LogBits = 0
	}
}

// clearTxMeta clears persist/log bits of the transaction's lines after a
// redo commit.
func (e *Engine) clearTxMeta() {
	for _, h := range e.txPrivateLines() {
		h.line.Persist = false
		h.line.LogBits = 0
	}
}

// writeCommitMarker persists the committed state in the log header.
func (e *Engine) writeCommitMarker() {
	prev := e.m.SetCause(profile.CauseCommitMarker)
	defer e.m.SetCause(prev)
	mode := uint64(logfmt.ModeUndo)
	if e.cfg.Mode == Redo {
		mode = logfmt.ModeRedo
	}
	e.w.writeHeader(logfmt.Header{
		Magic:     logfmt.Magic,
		Seq:       e.cur.seq,
		State:     logfmt.StateCommitted,
		Mode:      mode,
		Watermark: e.w.nextOff,
	})
	// Addr encodes the log mode for the sanitizer: 0 undo, 1 redo.
	e.m.Trace(trace.KCommitMarker, mem.Addr(mode-logfmt.ModeUndo), e.cur.seq)
}

// abortGrouped revokes a transaction running under group commit. The
// committed prefix of the window seals first — closeEpoch with reopen
// splits the stream at the aborting transaction's first record and
// makes every committed transaction of the window durable — so the
// abort proper concerns only the record suffix [txnStartOff, nextOff).
// The caller (Abort) then runs the shared tail: dropping and restoring
// the transaction's logged lines and retiring the header to Idle.
func (e *Engine) abortGrouped() {
	if e.epochOpen && e.epochTxns > 0 {
		e.closeEpoch()
	} else if e.cfg.Mode == Undo {
		// Empty window, but the aborting transaction's buffered records
		// must still reach the log: restoring a line from the durable
		// image is only correct once every logged old value has been
		// applied back, and records buffered at abort time would
		// otherwise vanish.
		prev := e.m.SetCause(profile.CauseLogPersist)
		e.m.PushStream()
		e.sink.drain()
		e.m.PopStream()
		e.m.SetCause(prev)
		e.m.AckBarrier()
	} else {
		e.sink.clear()
	}
	// Both branches parse below nextOff: read only that prefix.
	raw := logfmt.ReadPrefix(e.m.PM, e.m.Layout.LogBase, e.m.Layout.LogSize, e.w.nextOff)
	if e.cfg.Mode == Undo {
		// Reverse-apply the suffix. Restoring straight from the durable
		// image (the W=1 path) would resurrect pre-EPOCH values — the
		// committed window transactions' data may have persisted only at
		// the close just issued — but their committed values are exactly
		// this transaction's logged old values, so applying the suffix
		// back restores them to cache and PM.
		recs, err := logfmt.ParseRegion(raw, e.txnStartOff, e.w.nextOff)
		if err != nil {
			panic(fmt.Sprintf("engine: corrupt own log on abort: %v", err))
		}
		for i := len(recs) - 1; i >= 0; i-- {
			if logfmt.IsBoundary(recs[i]) {
				continue
			}
			e.m.PersistData(recs[i].Addr, recs[i].Data)
		}
	} else {
		// Redo records of the aborting transaction are unwanted new
		// values and stay ignored (the marker's CommittedTo fences them
		// off). But committed logged lines this transaction also wrote
		// were left volatile by the close (the reopen skips lines shared
		// with the running transaction), so replay the committed region
		// forward to pin their committed values into cache and PM before
		// the header drops to Idle.
		recs, err := logfmt.ParseRegion(raw, logfmt.RecordsStart, e.txnStartOff)
		if err != nil {
			panic(fmt.Sprintf("engine: corrupt own log on abort: %v", err))
		}
		for _, r := range recs {
			if logfmt.IsBoundary(r) {
				continue
			}
			e.m.PersistData(r.Addr, r.Data)
		}
	}
	e.epochOpen = false
	e.epochTxns = 0
}

// Abort revokes the transaction (§V-B): buffered records and cached
// updates of logged lines are dropped, undo records that already reached
// PM are applied back to persistent data, and log-free lines are left
// for the caller's recovery code to repair.
func (e *Engine) Abort() {
	if !e.cur.active {
		panic("engine: Abort outside a transaction")
	}
	if e.grouped() {
		e.abortGrouped()
	} else {
		e.sink.clear()

		if e.cfg.Mode == Undo {
			// Apply durable undo records to persistent data (records for
			// never-evicted lines never reached PM; their volatile updates
			// are dropped below).
			raw := logfmt.ReadToWatermark(e.m.PM, e.m.Layout.LogBase, e.m.Layout.LogSize)
			recs, err := logfmt.ParseRecords(raw, e.cur.seq)
			if err != nil {
				panic(fmt.Sprintf("engine: corrupt own log on abort: %v", err))
			}
			for i := len(recs) - 1; i >= 0; i-- {
				e.m.PersistData(recs[i].Addr, recs[i].Data)
			}
		}
	}

	// Invalidate the transaction's logged lines and restore their
	// volatile contents from (now reverted) PM. Log-free lines keep
	// their updates and metadata (at W=1 the next commit scan under
	// this ID persists them; see abandoned); the caller's recovery
	// reverts them structurally.
	id := lineID(e.cur.id)
	for _, la := range e.cur.writeLines.keys {
		if e.cur.writeLines.m[la]&wsLogged == 0 {
			if l, _ := e.privateLine(la); !e.grouped() && l != nil && l.TxID == id && l.Persist {
				e.abandoned[e.cur.id] = append(e.abandoned[e.cur.id], la)
			}
			continue
		}
		e.m.DropLine(la)
		e.m.RestoreLineFromDurable(la)
	}
	clear(e.suppressed)

	mode := uint64(logfmt.ModeUndo)
	if e.cfg.Mode == Redo {
		mode = logfmt.ModeRedo
	}
	e.w.writeHeader(logfmt.Header{
		Magic:     logfmt.Magic,
		Seq:       e.cur.seq,
		State:     logfmt.StateIdle,
		Mode:      mode,
		Watermark: logfmt.RecordsStart,
	})
	e.cur.sig.Clear()
	e.cur.active = false
	e.m.Stats.TxAborts++
	e.m.Trace(trace.KTxAbort, 0, e.cur.seq)
}

// ContextSwitch models the OS-visible part of a thread switch (§V-C):
// the kernel drains the log buffer so the outgoing thread's records are
// durable before another thread runs on the core. Lazy-persistency
// state (signatures, transaction-ID allocation) is untouched — it is
// not specific to a context — and an active transaction simply resumes
// when the thread is switched back in.
func (e *Engine) ContextSwitch() {
	e.forceCloseEpoch()
	prev := e.m.SetCause(profile.CauseLogPersist)
	e.m.PushStream()
	e.sink.drain()
	e.m.PopStream()
	e.m.SetCause(prev)
	e.m.AckBarrier()
}
