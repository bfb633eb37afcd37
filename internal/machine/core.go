package machine

import (
	"fmt"

	"github.com/persistmem/slpmt/internal/cache"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/stats"
	"github.com/persistmem/slpmt/internal/trace"
)

// Core is one simulated core: private L1/L2 caches, a logical clock,
// and per-core counters, backed by the machine's shared L3, persistent
// memory device, and functional memory image. Not safe for concurrent
// use; a multi-core machine interleaves its cores deterministically on
// one OS thread.
type Core struct {
	// ID is the core index within its machine.
	ID int
	// Home is the core's home socket (ID mod sockets; 0 on a
	// single-socket machine). Persists and PM demand reads to another
	// socket's address range pay the topology's interconnect distance.
	Home int
	Clk  uint64
	L1   *cache.Cache
	L2   *cache.Cache
	// PM is socket 0's persistent-memory device (same object on every
	// core of a machine; its durable image is shared by all sockets).
	// Timing-sensitive persist paths route through the topology instead.
	PM *pmem.Device
	// Layout is this core's address map: the heap and root regions are
	// shared with every other core; the log region is private.
	Layout mem.Layout
	// Stats are this core's counters; Machine.MergedStats sums them.
	Stats *stats.Counters

	sh *Machine      // shared L3 / PM / vol
	tr *trace.Tracer // nil unless the machine was built with a tracer

	// prof, when non-nil, receives a cycle-attribution charge for every
	// clock advance (see charge). cause is the active attribution
	// context the engine installs around multi-persist operations; with
	// no context, persists fall to the generic WPQ buckets.
	prof  *profile.Profile
	cause profile.Cause

	// asyncDepth > 0 routes persists through the asynchronous path
	// (posted, no durability-ack wait): eviction handling, log-buffer
	// spills and lazy drains run inside PushAsync/PopAsync sections.
	asyncDepth int
	// streamDepth > 0 routes persists through the streamed path
	// (backpressure but no per-line acknowledgement): the commit-time
	// log-buffer drain. streamFinish tracks the medium completion time
	// of the section's entries for the AckBarrier.
	streamDepth  int
	streamFinish uint64

	// OnL1Demote is invoked when a line is evicted from L1 to L2,
	// before its word-granularity log bits are folded to the L2
	// granularity. The speculative-logging optimization (§III-B1) uses
	// it to round partially logged 32-byte groups up.
	OnL1Demote func(l *cache.Line)
	// OnL2Evict is invoked when a line leaves the private caches (L2 ->
	// L3). The engine persists the associated log record and, if the
	// persist bit is set, the line itself, mutating the line's metadata
	// before it enters L3 (which carries no metadata).
	OnL2Evict func(l *cache.Line)
	// hookLine is the line an OnL1Demote/OnL2Evict hook is running on.
	// The hooks get a pointer into the core rather than to the victim
	// itself, which would move every evicted line to the heap. hookBusy
	// guards the slot: hooks never demote a line themselves.
	hookLine cache.Line
	hookBusy bool
	// OnL3Writeback is invoked after a dirty line of this core reaches
	// PM outside an explicit persist — an L3 victim writeback or a
	// coherence writeback forced by a remote core's request; the engine
	// uses it to retire lazy-persistency tracking.
	OnL3Writeback func(addr mem.Addr)
	// OnCoherenceTake, when non-nil, runs before a coherence writeback
	// persists a dirty private line that a remote core's bus request is
	// taking away. The transaction engine uses it to make the line's
	// log records durable ahead of the data — under group commit the
	// records of a committed-in-window transaction may still be short
	// of the watermark when the line migrates — and, in redo mode, to
	// veto the data persist entirely (logged epoch data must not reach
	// PM before its commit point). Returning false suppresses the PM
	// write; the volatile transfer is unaffected.
	OnCoherenceTake func(addr mem.Addr) bool
	// WritebackFilter, when non-nil, is consulted before a dirty L3
	// victim is written back; returning false suppresses the writeback
	// (redo-logging transactions must keep pre-transaction values in PM
	// until the commit record persists). Suppressed lines must be
	// persisted explicitly by the engine at commit.
	WritebackFilter func(addr mem.Addr) bool
}

// Machine returns the shared machine this core belongs to.
func (c *Core) Machine() *Machine { return c.sh }

// Trace emits a trace event stamped with this core's ID and clock. With
// no tracer attached (the common case) the call is a single branch.
//
//slpmt:noalloc
func (c *Core) Trace(kind trace.Kind, addr mem.Addr, arg uint64) {
	c.tr.Emit(uint8(c.ID), c.Clk, kind, uint64(addr), arg)
}

// Config returns the machine configuration.
func (c *Core) Config() Config { return c.sh.cfg }

// charge advances the clock by n cycles attributed to cause. Every
// clock advance goes through here, so the profile's per-core sums equal
// the clock totals by construction (the conservation invariant). With
// no profile attached (the common case) the cost over a bare += is one
// branch; attribution is observation-only either way.
//
//slpmt:noalloc
func (c *Core) charge(cause profile.Cause, n uint64) {
	c.Clk += n
	if c.prof != nil && n != 0 {
		c.chargeProfile(cause, n)
	}
}

// chargeProfile records an attribution charge in the profile and the
// trace. KCharge events are emitted only on profiled runs, so plain
// traced runs see an unchanged event stream.
//
//slpmt:noalloc
func (c *Core) chargeProfile(cause profile.Cause, n uint64) {
	c.prof.Add(c.ID, cause, n)
	c.tr.Emit(uint8(c.ID), c.Clk, trace.KCharge, uint64(cause), n)
}

// SetCause installs cause as the attribution context for subsequent
// persists and returns the previous context, which the caller must
// restore. The engine brackets multi-persist operations (commit stages,
// lazy drains, log appends) with it.
//
//slpmt:noalloc
func (c *Core) SetCause(cause profile.Cause) profile.Cause {
	prev := c.cause
	c.cause = cause
	return prev
}

// Tick advances the clock by n compute cycles.
func (c *Core) Tick(n uint64) { c.charge(profile.CauseCompute, n) }

// TickArena advances the clock by n cycles attributed to the sharded
// per-core heap allocator (txheap.NewSharded charges through it so
// arena-allocator time stays distinguishable from workload compute).
func (c *Core) TickArena(n uint64) { c.charge(profile.CauseAllocArena, n) }

// ReadMem copies the current (volatile) contents at addr into p. Purely
// functional: no timing. The volatile image is shared by all cores.
func (c *Core) ReadMem(addr mem.Addr, p []byte) { c.sh.vol.Read(addr, p) }

// WriteMem copies p into the volatile image at addr. Purely functional.
func (c *Core) WriteMem(addr mem.Addr, p []byte) { c.sh.vol.Write(addr, p) }

// ReadU64 reads a little-endian word from the volatile image.
func (c *Core) ReadU64(addr mem.Addr) uint64 { return c.sh.vol.ReadU64(addr) }

// WriteU64 writes a little-endian word into the volatile image.
func (c *Core) WriteU64(addr mem.Addr, v uint64) { c.sh.vol.WriteU64(addr, v) }

// AccessLine simulates one load or store touching the line containing
// addr: the hierarchy walk, latency accounting, metadata propagation
// across levels, coherence with the other cores' private caches, and
// eviction cascades. It returns the L1 line, whose SLPMT metadata the
// engine then inspects or updates. Accesses spanning multiple lines
// must be split by the caller.
func (c *Core) AccessLine(addr mem.Addr, write bool) *cache.Line {
	la := mem.LineAddr(addr)
	if la+mem.LineSize > c.sh.PM.Size() {
		panic(fmt.Sprintf("machine: access out of range: %#x", addr))
	}

	// L1.
	if l := c.L1.Lookup(la); l != nil {
		c.charge(profile.CauseL1Hit, c.L1.Latency())
		c.Stats.L1Hits++
		if write && l.State != cache.Modified {
			if l.State == cache.Shared {
				// Bus upgrade: invalidate the other sharers.
				c.sh.snoopUpgrade(c, la)
				c.sh.busWrite(c.ID, la)
			}
			l.State = cache.Modified
		}
		return l
	}
	c.Stats.L1Misses++
	c.charge(profile.CauseL1Miss, c.L1.Latency())

	// L2.
	if l2 := c.L2.Lookup(la); l2 != nil {
		c.charge(profile.CauseL2Hit, c.L2.Latency())
		c.Stats.L2Hits++
		c.Trace(trace.KCacheMiss, la, 2)
		line, _ := c.L2.Remove(la)
		line.LogBits = cache.ReplicateLogBits(line.LogBits)
		if write && line.State == cache.Shared {
			c.sh.snoopUpgrade(c, la)
			c.sh.busWrite(c.ID, la)
		}
		return c.finishFill(line, write)
	}
	c.Stats.L2Misses++
	c.charge(profile.CauseL2Miss, c.L2.Latency())

	// The request leaves the private caches: announce writes to the
	// other cores (lazy-persistency signature checks key on coherence
	// write requests, §III-C3) and snoop their private caches.
	if write {
		c.sh.busWrite(c.ID, la)
	}
	if found, shared := c.sh.snoopFetch(c, la, write); found {
		// Cache-to-cache transfer: a peer held the line; dirty copies
		// were written back and, for a write, every copy invalidated.
		c.Trace(trace.KCacheMiss, la, 5)
		st := cache.Exclusive
		if shared {
			st = cache.Shared
		}
		if write {
			// Drop any stale LLC copy left behind by an earlier
			// eviction of another sharer.
			c.sh.L3.Remove(la)
		}
		return c.finishFill(cache.Line{Addr: la, State: st}, write)
	}

	// L3.
	if l3 := c.sh.L3.Lookup(la); l3 != nil {
		c.charge(profile.CauseLLCHit, c.sh.L3.Latency())
		c.Stats.L3Hits++
		c.Trace(trace.KCacheMiss, la, 3)
		line, _ := c.sh.L3.Remove(la)
		// L3 carries no SLPMT metadata: bits start zeroed (§III-B1).
		line.Persist = false
		line.LogBits = 0
		line.TxID = 0
		return c.finishFill(line, write)
	}
	c.Stats.L3Misses++
	c.charge(profile.CauseLLCMiss, c.sh.L3.Latency())

	// PM demand fill: a miss served by a remote socket's medium pays the
	// interconnect distance on top of the device read latency.
	if t := c.sh.Topo; t != nil && t.Sockets() > 1 {
		if extra := t.ReadExtra(c.Home, c.Layout.SocketOf(la)); extra != 0 {
			c.Trace(trace.KWPQRemote, la, extra)
			c.charge(profile.CauseWPQRemote, extra)
		}
	}
	c.charge(profile.CausePMRead, c.sh.PM.ReadCycles())
	c.Stats.PMReadBytes += mem.LineSize
	c.Trace(trace.KCacheMiss, la, 4)
	return c.finishFill(cache.Line{Addr: la, State: cache.Exclusive}, write)
}

// finishFill installs a fetched line into L1 and applies the write
// state.
func (c *Core) finishFill(line cache.Line, write bool) *cache.Line {
	if write {
		line.State = cache.Modified
	}
	return c.insertL1(line)
}

// insertL1 places a line into L1, demoting any victim down the
// hierarchy.
func (c *Core) insertL1(line cache.Line) *cache.Line {
	ins, victim, evicted := c.L1.Insert(line)
	if evicted {
		c.Stats.L1Evicts++
		c.demoteToL2(victim)
	}
	return ins
}

// demoteToL2 folds the L1 word-granularity log bits into the L2
// 32-byte-granularity bits (Figure 5) and inserts the line into L2.
func (c *Core) demoteToL2(v cache.Line) {
	if c.OnL1Demote != nil {
		v = c.runLineHook(c.OnL1Demote, v)
	}
	v.LogBits = cache.FoldLogBits(v.LogBits)
	_, victim, evicted := c.L2.Insert(v)
	if evicted {
		c.Stats.L2Evicts++
		c.demoteToL3(victim)
	}
}

// demoteToL3 hands the line to the engine hook (which persists log
// records and persist-bit lines before they leave the private caches,
// §III-A), strips the SLPMT metadata, and inserts into the shared L3.
func (c *Core) demoteToL3(v cache.Line) {
	if c.OnL2Evict != nil {
		v = c.runLineHook(c.OnL2Evict, v)
	}
	c.Trace(trace.KCacheEvict, v.Addr, 2)
	v.Persist = false
	v.LogBits = 0
	v.TxID = 0
	_, victim, evicted := c.sh.L3.Insert(v)
	if evicted {
		c.Stats.L3Evicts++
		c.Trace(trace.KCacheEvict, victim.Addr, 3)
		if victim.State == cache.Modified {
			c.writeback(victim.Addr)
		}
	}
}

// runLineHook runs an eviction hook on v in the core's hook slot and
// returns the line as the hook left it.
func (c *Core) runLineHook(hook func(*cache.Line), v cache.Line) cache.Line {
	if c.hookBusy {
		panic("machine: an eviction hook demoted a line")
	}
	c.hookBusy = true
	c.hookLine = v
	hook(&c.hookLine)
	c.hookBusy = false
	return c.hookLine
}

// PushAsync enters an asynchronous-persist section (background
// hardware activity the core does not wait on). Sections nest.
func (c *Core) PushAsync() { c.asyncDepth++ }

// PopAsync leaves an asynchronous-persist section.
func (c *Core) PopAsync() {
	if c.asyncDepth == 0 {
		panicUnbalanced("PopAsync", "PushAsync")
	}
	c.asyncDepth--
}

// PushStream enters a streamed-persist section (pipelined engine:
// backpressure, no per-line acknowledgement).
func (c *Core) PushStream() {
	if c.streamDepth == 0 {
		c.streamFinish = 0
	}
	c.streamDepth++
}

// PopStream leaves a streamed-persist section.
func (c *Core) PopStream() {
	if c.streamDepth == 0 {
		panicUnbalanced("PopStream", "PushStream")
	}
	c.streamDepth--
}

// panicUnbalanced is kept out of line so the pop fast paths stay
// allocation-free when inlined into //slpmt:noalloc callers.
//
//go:noinline
func panicUnbalanced(pop, push string) {
	panic("machine: " + pop + " without " + push)
}

// AckBarrier is the ordering/durability point at the end of a streamed
// sequence: the core waits until every entry enqueued during the
// current stream section has completed in the medium, plus one
// acknowledgement round trip. Entries posted outside the section (lazy
// drains, writebacks) are not waited on. The wait is charged to the
// active attribution context, defaulting to the per-transaction
// log-sync bucket (the engine's group-commit close installs its own
// context so amortized barriers stay distinguishable).
func (c *Core) AckBarrier() {
	wait := c.sh.PM.Config().AckCycles
	if c.streamFinish > c.Clk {
		wait += c.streamFinish - c.Clk
	}
	cause := c.cause
	if cause == profile.CauseNone {
		cause = profile.CauseLogSync
	}
	c.charge(cause, wait)
}

// persist routes a durable write through the sync, streamed or async
// device path according to the current section, charging the core's
// stall. Each socket's WPQ is shared by every core persisting into its
// address range: cores arbitrate at their own (interleaved) clocks, and
// a cross-socket persist first pays the interconnect hop distance —
// stalling the core on the sync/stream paths, delaying the posted entry
// on the async path.
func (c *Core) persist(addr mem.Addr, data []byte) {
	dev := c.PM
	var hop uint64 // posted-path interconnect delay (async persists)
	if t := c.sh.Topo; t != nil && t.Sockets() > 1 {
		s := c.Layout.SocketOf(addr)
		dev = t.Dev(s)
		if extra := t.EnqueueExtra(c.Home, s); extra != 0 {
			c.Trace(trace.KWPQRemote, addr, extra)
			if c.asyncDepth > 0 {
				hop = extra
			} else {
				c.charge(profile.CauseWPQRemote, extra)
			}
		}
	}
	dev.SetCore(c.ID)
	c.sh.PersistTotal++
	if c.sh.PersistTotal == c.sh.CrashAfterTotal {
		// The write itself completes (it reached the persist domain);
		// execution stops immediately after.
		if c.asyncDepth > 0 {
			dev.PersistAsync(c.Clk+hop, addr, data)
		} else {
			dev.Persist(c.Clk, addr, data)
		}
		panic(CrashSignal{At: c.sh.PersistTotal})
	}
	var stall uint64
	switch {
	case c.asyncDepth > 0:
		stall = dev.PersistAsync(c.Clk+hop, addr, data)
	case c.streamDepth > 0:
		stall = dev.PersistStream(c.Clk, addr, data)
		if f := dev.LastFinish(); f > c.streamFinish {
			c.streamFinish = f
		}
	default:
		stall = dev.Persist(c.Clk, addr, data)
	}
	c.chargePersist(dev, stall)
	c.chargeStall(stall)
}

// chargePersist advances the clock by a persist's stall, decomposed for
// attribution: time waited for WPQ space is always charged to the stall
// bucket (queue backpressure stays first-class even inside an engine
// context); the remainder goes to the active context, or — with none
// set — splits into the fixed enqueue cost and the synchronous
// service/ack remainder.
//
//slpmt:noalloc
func (c *Core) chargePersist(dev *pmem.Device, stall uint64) {
	waited := dev.LastWaited()
	if waited > stall {
		waited = stall
	}
	rest := stall - waited
	if cause := c.cause; cause != profile.CauseNone {
		c.charge(cause, rest)
	} else {
		enq := dev.Config().EnqueueCycles
		if enq > rest {
			enq = rest
		}
		c.charge(profile.CauseWPQEnqueue, enq)
		c.charge(profile.CausePersistSync, rest-enq)
	}
	c.charge(profile.CauseWPQStall, waited)
}

// writeback writes a dirty L3 victim's current contents to PM (always
// asynchronous: the core does not wait for victim writebacks).
func (c *Core) writeback(addr mem.Addr) {
	if c.WritebackFilter != nil && !c.WritebackFilter(addr) {
		return
	}
	var buf [mem.LineSize]byte
	c.ReadMem(addr, buf[:])
	c.PushAsync()
	c.persist(addr, buf[:])
	c.PopAsync()
	c.Stats.PMWriteBytesData += mem.LineSize
	c.Stats.PMWriteEntries++
	c.Stats.L3Writebacks++
	if c.OnL3Writeback != nil {
		c.OnL3Writeback(addr)
	}
}

// coherenceWriteback makes a dirty private line durable because a
// remote core's bus request is taking the line away: the owner posts
// the writeback on its own timeline and retires any lazy-persistency
// tracking, exactly as if the line had left the hierarchy.
func (c *Core) coherenceWriteback(addr mem.Addr) {
	if c.OnCoherenceTake != nil && !c.OnCoherenceTake(addr) {
		return
	}
	var buf [mem.LineSize]byte
	c.ReadMem(addr, buf[:])
	prev := c.SetCause(profile.CauseCoherence)
	c.PushAsync()
	c.persist(addr, buf[:])
	c.PopAsync()
	c.SetCause(prev)
	c.Stats.PMWriteBytesData += mem.LineSize
	c.Stats.PMWriteEntries++
	c.Stats.CoherenceWritebacks++
	c.Trace(trace.KCohWriteback, addr, 0)
	if c.OnL3Writeback != nil {
		c.OnL3Writeback(addr)
	}
}

// chargeStall records WPQ backpressure (stall beyond the fixed enqueue
// latency) in the counters.
func (c *Core) chargeStall(stall uint64) {
	if enq := c.sh.PM.Config().EnqueueCycles; stall > enq {
		c.Stats.WPQStallCycles += stall - enq
	}
}

// PersistLine makes the line containing addr durable: its current
// volatile contents are enqueued to the WPQ and any cached copy becomes
// clean. Returns true if a PM write was actually issued (false if the
// line was already clean and absent, i.e. its contents are already
// durable — persisting then would be redundant).
func (c *Core) PersistLine(addr mem.Addr) bool {
	la := mem.LineAddr(addr)
	l := c.L1.Peek(la)
	if l == nil {
		l = c.L2.Peek(la)
	}
	if l == nil {
		l = c.sh.L3.Peek(la)
	}
	if l == nil {
		l = c.peekRemote(la)
	}
	if l != nil && l.State != cache.Modified {
		// Clean copy: durable image already current.
		return false
	}
	if l == nil {
		// Not cached anywhere: it was either written back on L3
		// eviction (durable already) or never written. Either way the
		// durable image is current, because every path out of the
		// caches persists dirty data.
		return false
	}
	var buf [mem.LineSize]byte
	c.ReadMem(la, buf[:])
	c.persist(la, buf[:])
	c.Stats.PMWriteBytesData += mem.LineSize
	c.Stats.PMWriteEntries++
	l.State = cache.Exclusive
	return true
}

// peekRemote returns another core's private copy of the line, if any —
// a dirty line can migrate into a peer's cache via the shared L3, and
// a persist must still find it. Single-core machines never hit this.
func (c *Core) peekRemote(la mem.Addr) *cache.Line {
	for _, o := range c.sh.cores {
		if o == c {
			continue
		}
		if l := o.L1.Peek(la); l != nil {
			return l
		}
		if l := o.L2.Peek(la); l != nil {
			return l
		}
	}
	return nil
}

// ForcePersistLine persists the line containing addr from the volatile
// image unconditionally (used by redo commits for lines whose writeback
// was suppressed, and by non-transactional persist-through writes). Any
// cached copy becomes clean.
func (c *Core) ForcePersistLine(addr mem.Addr) {
	la := mem.LineAddr(addr)
	var buf [mem.LineSize]byte
	c.ReadMem(la, buf[:])
	c.persist(la, buf[:])
	c.Stats.PMWriteBytesData += mem.LineSize
	c.Stats.PMWriteEntries++
	if _, l := c.FindCached(la); l != nil && l.State == cache.Modified {
		l.State = cache.Exclusive
	}
}

// PersistData makes an arbitrary small byte range durable, updating both
// the durable and volatile images (used by the abort path to apply undo
// records to persistent data). Counted as data traffic; one full line
// write per touched line.
func (c *Core) PersistData(addr mem.Addr, data []byte) {
	// Write volatile first, then persist each touched line in full.
	c.WriteMem(addr, data)
	mem.LineRange(addr, len(data), func(line mem.Addr, off, n int) {
		var buf [mem.LineSize]byte
		c.ReadMem(line, buf[:])
		c.persist(line, buf[:])
		c.Stats.PMWriteBytesData += mem.LineSize
		c.Stats.PMWriteEntries++
		if _, l := c.FindCached(line); l != nil && l.State == cache.Modified {
			l.State = cache.Exclusive
		}
	})
}

// PersistShadow makes the given bytes durable at addr WITHOUT touching
// the volatile image — recovery-grade data whose newest volatile value
// must survive. The redo group close uses it to pin a committed logged
// value into PM when the line is shared with a transaction running
// through the close: the volatile line already carries the in-flight
// value, which must not persist, while the committed value (held by
// the log record) must not be lost when the stream later resets.
// Posted on the core's timeline; counted as data traffic.
func (c *Core) PersistShadow(addr mem.Addr, data []byte) {
	c.PushAsync()
	c.persist(addr, data)
	c.PopAsync()
	c.Stats.PMWriteBytesData += uint64(len(data))
	c.Stats.PMWriteEntries++
}

// RestoreLineFromDurable copies the durable contents of addr's line into
// the volatile image — the abort-path repair after invalidating a
// transaction's cached updates (§V-B).
func (c *Core) RestoreLineFromDurable(addr mem.Addr) {
	la := mem.LineAddr(addr)
	var buf [mem.LineSize]byte
	c.sh.PM.Read(la, buf[:])
	c.WriteMem(la, buf[:])
}

// PersistLogLine writes up to one cache line of serialized log records
// at logAddr into the durable log region. The write is counted as a full
// line of PM log traffic (PM writes are line-granular).
func (c *Core) PersistLogLine(logAddr mem.Addr, data []byte) {
	if len(data) > mem.LineSize {
		panic("machine: log write exceeds one line")
	}
	// Keep the volatile image in sync so post-abort code sees the log.
	c.WriteMem(logAddr, data)
	// Log-line writes default to the log-persist bucket unless the
	// engine installed a more specific context (commit marker, append).
	prev := c.SetCause(profile.CauseLogPersist)
	if prev != profile.CauseNone {
		c.SetCause(prev)
	}
	c.persist(logAddr, data)
	c.SetCause(prev)
	c.Stats.PMWriteBytesLog += mem.LineSize
	c.Stats.PMWriteEntries++
}

// FindCached returns the line's location: the cache level holding it
// (1, 2, 3) and the line pointer, or (0, nil) if uncached in this
// core's hierarchy view (private L1/L2 plus the shared L3).
func (c *Core) FindCached(addr mem.Addr) (int, *cache.Line) {
	la := mem.LineAddr(addr)
	if l := c.L1.Peek(la); l != nil {
		return 1, l
	}
	if l := c.L2.Peek(la); l != nil {
		return 2, l
	}
	if l := c.sh.L3.Peek(la); l != nil {
		return 3, l
	}
	return 0, nil
}

// DropLine removes the line containing addr from this core's hierarchy
// view without any writeback — the abort-path invalidation (§V-B). The
// volatile contents must be repaired by the caller (undo application).
func (c *Core) DropLine(addr mem.Addr) {
	la := mem.LineAddr(addr)
	c.L1.Remove(la)
	c.L2.Remove(la)
	c.sh.L3.Remove(la)
}

// Crash returns the durable image as of now — the ADR crash snapshot.
func (c *Core) Crash() *pmem.Image { return c.sh.PM.Crash() }
