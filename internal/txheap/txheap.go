// Package txheap is the persistent-heap allocator the workloads allocate
// their durable objects from.
//
// Following the paper's programming model (§IV-B, Pattern 1), allocator
// METADATA is volatile: like the STAMP ports' malloc, the free lists and
// bump pointer live outside persistent memory and are rebuilt after a
// crash by a reachability scan from the application's roots. A crash in
// the middle of a transaction can therefore leak objects that were
// allocated but never linked into the structure — exactly the leak the
// paper's recovery reclaims "using a garbage collector or a persistent
// inspector from PMDK". The recovery package implements that collector
// (mark from roots, rebuild the heap).
//
// Two rules keep selective logging sound:
//
//   - Objects freed inside a transaction are quarantined until the
//     transaction commits; the allocator never hands memory freed by the
//     current transaction back to it. (Reuse within the freeing
//     transaction would let log-free scribbles reach PM over data that
//     an undo-recovery could resurrect.)
//   - On abort, the transaction's allocations are returned to the free
//     list and its frees are cancelled.
//
// The allocator is first-fit over a sorted, coalescing free-extent list,
// with a bump pointer for virgin space.
//
// Space management is factored into spans — contiguous regions each
// with their own free list and bump pointer. The classic shared heap
// (New) is one span over the whole heap region. On a multi-socket
// topology (NewSharded) every core gets its own Heap handle whose
// allocation order is [local arena span, shared global fallback span]:
// the arena is a socket-local stripe of the heap (mem.Layout.ArenaBase),
// so allocation metadata stops being a cross-core serialization point
// and fresh objects land on the allocating core's home socket. Frees
// and rebuilds route by address to the owning span, whichever handle
// performs them.
package txheap

import (
	"fmt"
	"sort"

	"github.com/persistmem/slpmt/internal/mem"
)

// Extent is a [Addr, Addr+Size) byte range in the heap.
type Extent struct {
	Addr mem.Addr
	Size uint64
}

// End returns the first address past the extent.
func (e Extent) End() mem.Addr { return e.Addr + e.Size }

// Ticker is the clock surface the heap charges allocation costs to
// (satisfied by *machine.Machine and *machine.Core).
type Ticker interface {
	Tick(cycles uint64)
}

// arenaTicker is the optional charging surface of sharded heaps: when
// the Ticker also implements it, arena-allocator cycles are charged
// through TickArena (profile.CauseAllocArena) instead of plain compute.
type arenaTicker interface {
	TickArena(cycles uint64)
}

// DefaultAllocCycles is the modelled CPU cost of one allocator
// operation.
const DefaultAllocCycles = 40

// LargeAllocBytes is the sharded-heap threshold above which an
// allocation goes to the shared global fallback span instead of the
// local arena. The fallback region is line-interleaved across sockets
// (mem.Layout.SocketOf), so a large shared object — a bucket array, a
// setup-built spine — spreads its persist traffic over every device
// rather than camping on the allocating core's socket. Classic
// (non-sharded) heaps ignore the threshold.
const LargeAllocBytes = 2048

// BurstSpillBytes is the sharded-heap per-transaction allocation budget
// a local arena serves before the transaction's remaining allocations
// spill to the interleaved fallback span. A transaction allocating far
// more than a typical operation (a rehash copying every node, a bulk
// load) is reorganizing shared state, and packing that burst into one
// socket's arena would serialize the whole structure's future persist
// traffic behind one write queue — the interleave-on-bulk policy of
// NUMA allocators. Ordinary transactions never reach the budget and
// stay arena-local.
const BurstSpillBytes = 8 << 10

// span is one contiguous space-managed region: a sorted coalescing
// free-extent list plus a bump pointer for virgin space. Sharded heaps
// share span pointers across handles; the interleaved scheduler runs
// one core at a time, so no locking is needed (mutex-free by design).
type span struct {
	base      mem.Addr
	limit     mem.Addr
	bump      mem.Addr
	free      []Extent            // sorted by Addr, non-adjacent
	allocated map[mem.Addr]uint64 // live blocks: addr -> size
	liveBytes uint64
}

func newSpan(base mem.Addr, size uint64) *span {
	return &span{
		base:      base,
		limit:     base + mem.Addr(size),
		bump:      base,
		allocated: make(map[mem.Addr]uint64),
	}
}

// contains reports whether addr lies inside the span's region.
func (s *span) contains(addr mem.Addr) bool { return addr >= s.base && addr < s.limit }

// alloc takes size bytes from the span: first-fit over the free list,
// then the bump pointer. Returns false when the span is exhausted.
func (s *span) alloc(size uint64) (mem.Addr, bool) {
	if addr, ok := s.allocFromFree(size); ok {
		s.allocated[addr] = size
		s.liveBytes += size
		return addr, true
	}
	if s.bump+mem.Addr(size) > s.limit {
		return 0, false
	}
	addr := s.bump
	s.bump += mem.Addr(size)
	s.allocated[addr] = size
	s.liveBytes += size
	return addr, true
}

// allocFromFree takes a first-fit extent from the free list, splitting.
func (s *span) allocFromFree(size uint64) (mem.Addr, bool) {
	for i := range s.free {
		if s.free[i].Size >= size {
			addr := s.free[i].Addr
			if s.free[i].Size == size {
				s.free = append(s.free[:i], s.free[i+1:]...)
			} else {
				s.free[i].Addr += mem.Addr(size)
				s.free[i].Size -= size
			}
			return addr, true
		}
	}
	return 0, false
}

// insertFree adds an extent to the sorted free list, coalescing with
// neighbours.
func (s *span) insertFree(e Extent) {
	i := sort.Search(len(s.free), func(i int) bool { return s.free[i].Addr >= e.Addr })
	s.free = append(s.free, Extent{})
	copy(s.free[i+1:], s.free[i:])
	s.free[i] = e
	// Coalesce with successor.
	if i+1 < len(s.free) && s.free[i].End() == s.free[i+1].Addr {
		s.free[i].Size += s.free[i+1].Size
		s.free = append(s.free[:i+1], s.free[i+2:]...)
	}
	// Coalesce with predecessor.
	if i > 0 && s.free[i-1].End() == s.free[i].Addr {
		s.free[i-1].Size += s.free[i].Size
		s.free = append(s.free[:i], s.free[i+1:]...)
	}
}

// rebuild reconstructs the span from its (sorted) reachable extents:
// reachable blocks become the live set, every gap between them becomes
// free space, and the bump pointer retreats to the last reachable byte
// — trailing allocations a crashed transaction leaked return to virgin
// space (counted as reclaimed when rebuilding a live handle).
func (s *span) rebuild(sorted []Extent, rep *RebuildReport) {
	s.allocated = make(map[mem.Addr]uint64, len(sorted))
	s.free = s.free[:0]
	s.liveBytes = 0
	cursor := s.base
	for _, e := range sorted {
		if e.Addr < cursor {
			panic(fmt.Sprintf("txheap: overlapping reachable extents at %#x", e.Addr))
		}
		if gap := uint64(e.Addr - cursor); gap > 0 {
			s.insertFree(Extent{cursor, gap})
			rep.ReclaimedGaps++
			rep.ReclaimedBytes += gap
		}
		s.allocated[e.Addr] = e.Size
		s.liveBytes += e.Size
		rep.ReachableBlocks++
		rep.ReachableBytes += e.Size
		cursor = e.End()
	}
	if cursor < s.bump {
		rep.ReclaimedGaps++
		rep.ReclaimedBytes += uint64(s.bump - cursor)
	}
	s.bump = cursor
}

// extIndex is the lazily sorted lookup cache behind InTxAlloc/InTxFree:
// the per-transaction extent lists are append-only between resets, so
// the cache sorts once per batch of lookups instead of scanning
// linearly on every store (a hot path of the engine's Pattern 1
// analysis). The backing buffer is reused across transactions.
type extIndex struct {
	sorted []Extent
	clean  bool
}

func (ix *extIndex) invalidate() { ix.clean = false }

// extIndexLinearMax is the list length below which a plain linear scan
// beats maintaining the sorted cache.
const extIndexLinearMax = 8

// lookup reports whether addr lies inside any extent of ext.
func (ix *extIndex) lookup(ext []Extent, addr mem.Addr) bool {
	if len(ext) <= extIndexLinearMax {
		for _, e := range ext {
			if addr >= e.Addr && addr < e.End() {
				return true
			}
		}
		return false
	}
	if !ix.clean {
		ix.sorted = append(ix.sorted[:0], ext...)
		sort.Slice(ix.sorted, func(i, j int) bool { return ix.sorted[i].Addr < ix.sorted[j].Addr })
		ix.clean = true
	}
	// First extent starting past addr; the candidate is its predecessor.
	i := sort.Search(len(ix.sorted), func(i int) bool { return ix.sorted[i].Addr > addr })
	if i == 0 {
		return false
	}
	e := ix.sorted[i-1]
	return addr < e.End()
}

// Heap is one allocation handle: transaction bookkeeping plus an
// ordered list of spans to allocate from. The classic shared heap has
// one handle with one span; a sharded heap has one handle per core,
// all sharing the same spans (each handle preferring its local arena).
// Not safe for concurrent use.
type Heap struct {
	clk         Ticker
	atick       arenaTicker // non-nil on sharded heaps whose clock supports arena charging
	spans       []*span     // allocation preference order
	all         []*span     // every span of the machine (free/rebuild routing)
	shared      *span       // sharded heaps: the global fallback, preferred for large allocations
	allocCycles uint64

	inTx         bool
	txAllocs     []Extent // allocations made by the current transaction
	txFrees      []Extent // frees made by the current transaction
	txBytes      uint64   // bytes allocated by the current transaction (burst detection)
	txAllocIdx   extIndex // sorted lookup cache over txAllocs
	txFreeIdx    extIndex // sorted lookup cache over txFrees
	epochHold    bool     // extend the free quarantine to the epoch close
	epochFrees   []Extent // committed frees awaiting their epoch's durability
	totalAllocs  uint64
	totalFrees   uint64
	totalBytes   uint64
	rebuiltGaps  uint64
	rebuiltBytes uint64
}

// New creates a heap over [layout.HeapBase, HeapBase+HeapSize). clk may
// be nil (no timing charged).
func New(clk Ticker, layout mem.Layout, allocCycles uint64) *Heap {
	if allocCycles == 0 {
		allocCycles = DefaultAllocCycles
	}
	s := newSpan(layout.HeapBase, layout.HeapSize)
	return &Heap{
		clk:         clk,
		spans:       []*span{s},
		all:         []*span{s},
		allocCycles: allocCycles,
	}
}

// NewSharded creates the per-core heap handles of a multi-socket
// machine. Core i's handle allocates from its local arena span
// (layouts[i].ArenaBase, a stripe on the core's home socket) first and
// falls back to the shared global span — the stripes past the last
// core's arena. All handles share the spans: frees and rebuilds route
// by address to the owning span regardless of which handle performs
// them. clks[i] (may be nil) is charged core i's allocator cycles,
// through TickArena when supported (profile.CauseAllocArena).
func NewSharded(clks []Ticker, layouts []mem.Layout, allocCycles uint64) []*Heap {
	if allocCycles == 0 {
		allocCycles = DefaultAllocCycles
	}
	if len(layouts) == 0 {
		panic("txheap: NewSharded with no layouts")
	}
	l0 := layouts[0]
	if l0.ArenaSize == 0 {
		panic("txheap: NewSharded needs a multi-socket layout (no arenas carved)")
	}
	cores := len(layouts)
	all := make([]*span, 0, cores+1)
	for i := 0; i < cores; i++ {
		all = append(all, newSpan(layouts[i].ArenaBase, layouts[i].ArenaSize))
	}
	// Global fallback: everything past the last arena, shared by every
	// handle. Mutex-free like the arenas — the deterministic interleaver
	// runs one core at a time.
	fbBase := layouts[cores-1].ArenaBase + mem.Addr(layouts[cores-1].ArenaSize)
	fbEnd := l0.HeapBase + mem.Addr(l0.HeapSize)
	if fbBase >= fbEnd {
		panic("txheap: no room for the global fallback span")
	}
	fallback := newSpan(fbBase, uint64(fbEnd-fbBase))
	all = append(all, fallback)

	heaps := make([]*Heap, cores)
	for i := 0; i < cores; i++ {
		h := &Heap{
			spans:       []*span{all[i], fallback},
			all:         all,
			shared:      fallback,
			allocCycles: allocCycles,
		}
		if i < len(clks) && clks[i] != nil {
			h.clk = clks[i]
			if at, ok := clks[i].(arenaTicker); ok {
				h.atick = at
			}
		}
		heaps[i] = h
	}
	return heaps
}

func (h *Heap) tick() {
	if h.atick != nil {
		h.atick.TickArena(h.allocCycles)
		return
	}
	if h.clk != nil {
		h.clk.Tick(h.allocCycles)
	}
}

// spanOf returns the span containing addr, or nil. The span count is
// cores+1 at most, so a linear scan is fine.
func (h *Heap) spanOf(addr mem.Addr) *span {
	for _, s := range h.all {
		if s.contains(addr) {
			return s
		}
	}
	return nil
}

// BeginTx marks the start of a transaction (called by the ptx facade).
func (h *Heap) BeginTx() {
	if h.inTx {
		panic("txheap: nested BeginTx")
	}
	h.inTx = true
	h.txAllocs = h.txAllocs[:0]
	h.txFrees = h.txFrees[:0]
	h.txBytes = 0
	h.txAllocIdx.invalidate()
	h.txFreeIdx.invalidate()
}

// CommitTx releases quarantined frees to the free list — or, under
// the epoch quarantine, parks them until the epoch's commit point.
func (h *Heap) CommitTx() {
	if !h.inTx {
		panic("txheap: CommitTx outside transaction")
	}
	if h.epochHold {
		h.epochFrees = append(h.epochFrees, h.txFrees...)
	} else {
		for _, e := range h.txFrees {
			h.insertFree(e)
		}
	}
	h.inTx = false
	h.txAllocs = h.txAllocs[:0]
	h.txFrees = h.txFrees[:0]
	h.txBytes = 0
	h.txAllocIdx.invalidate()
	h.txFreeIdx.invalidate()
}

// EpochQuarantine extends the commit-time free quarantine to the
// group-commit epoch close. Under a commit window a transaction's
// commit is volatile until its epoch closes; releasing its frees at
// commit would let a later transaction of the same window reuse the
// memory and scribble it with log-free stores — stores no undo record
// can revert, over blocks the durable (pre-epoch) state still reaches.
// Parked frees return to the free list via ReleaseEpochFrees.
func (h *Heap) EpochQuarantine(on bool) { h.epochHold = on }

// ReleaseEpochFrees returns every epoch-parked extent to the free
// list. Called when an epoch's commit point is durable (its frees can
// no longer be rolled back).
func (h *Heap) ReleaseEpochFrees() {
	for _, e := range h.epochFrees {
		h.insertFree(e)
	}
	h.epochFrees = h.epochFrees[:0]
}

// AbortTx rolls the allocator back: the transaction's allocations return
// to the free list and its frees are reinstated as live.
func (h *Heap) AbortTx() {
	if !h.inTx {
		panic("txheap: AbortTx outside transaction")
	}
	for _, e := range h.txAllocs {
		s := h.spanOf(e.Addr)
		delete(s.allocated, e.Addr)
		s.liveBytes -= e.Size
		s.insertFree(e)
	}
	for _, e := range h.txFrees {
		s := h.spanOf(e.Addr)
		s.allocated[e.Addr] = e.Size
		s.liveBytes += e.Size
	}
	h.inTx = false
	h.txAllocs = h.txAllocs[:0]
	h.txFrees = h.txFrees[:0]
	h.txBytes = 0
	h.txAllocIdx.invalidate()
	h.txFreeIdx.invalidate()
}

// Alloc returns the address of a fresh block of at least size bytes
// (rounded up to a word multiple), taken from the first span in the
// handle's preference order with room (local arena before the global
// fallback on sharded heaps; allocations of LargeAllocBytes or more go
// to the fallback first, whose lines interleave across sockets). Panics
// when every span is exhausted — the simulated workloads size the heap
// generously.
func (h *Heap) Alloc(size uint64) mem.Addr {
	if size == 0 {
		size = mem.WordSize
	}
	size = uint64(mem.AlignUp(mem.Addr(size), mem.WordSize))
	h.tick()

	var addr mem.Addr
	ok := false
	if h.shared != nil && (size >= LargeAllocBytes || h.txBytes >= BurstSpillBytes) {
		addr, ok = h.shared.alloc(size)
	}
	if !ok {
		for _, s := range h.spans {
			if addr, ok = s.alloc(size); ok {
				break
			}
		}
	}
	if !ok {
		last := h.spans[len(h.spans)-1]
		panic(fmt.Sprintf("txheap: out of memory (want %d bytes, bump %#x, limit %#x)", size, last.bump, last.limit))
	}
	h.totalAllocs++
	h.totalBytes += size
	if h.inTx {
		h.txAllocs = append(h.txAllocs, Extent{addr, size})
		h.txAllocIdx.invalidate()
		h.txBytes += size
	}
	return addr
}

// Free releases the block at addr, routing to the span that owns the
// address. Inside a transaction the memory is quarantined until commit.
// Freeing an unknown address panics (catching workload bugs early).
func (h *Heap) Free(addr mem.Addr) {
	s := h.spanOf(addr)
	var size uint64
	ok := false
	if s != nil {
		size, ok = s.allocated[addr]
	}
	if !ok {
		panic(fmt.Sprintf("txheap: free of unallocated address %#x", addr))
	}
	h.tick()
	delete(s.allocated, addr)
	s.liveBytes -= size
	h.totalFrees++
	e := Extent{addr, size}
	if h.inTx {
		h.txFrees = append(h.txFrees, e)
		h.txFreeIdx.invalidate()
	} else {
		s.insertFree(e)
	}
}

// SizeOf returns the allocation size of a live block, or 0 if addr is
// not a live block start.
func (h *Heap) SizeOf(addr mem.Addr) uint64 {
	if s := h.spanOf(addr); s != nil {
		return s.allocated[addr]
	}
	return 0
}

// insertFree routes an extent to its owning span's free list.
func (h *Heap) insertFree(e Extent) { h.spanOf(e.Addr).insertFree(e) }

// InTxAlloc reports whether addr lies inside a block allocated by the
// current transaction. Long provenance sets are answered from a sorted
// index built once per lookup batch (the extents are disjoint).
func (h *Heap) InTxAlloc(addr mem.Addr) bool {
	return h.txAllocIdx.lookup(h.txAllocs, addr)
}

// InTxFree reports whether addr lies inside a block freed by the
// current transaction (stores to it need no persistence, §IV-B).
func (h *Heap) InTxFree(addr mem.Addr) bool {
	return h.txFreeIdx.lookup(h.txFrees, addr)
}

// Live returns the machine-wide live extents, sorted by address (all
// spans, whichever handle is asked).
func (h *Heap) Live() []Extent {
	n := 0
	for _, s := range h.all {
		n += len(s.allocated)
	}
	out := make([]Extent, 0, n)
	for _, s := range h.all {
		for a, sz := range s.allocated { //slpmt:determinism-ok: collected extents are sorted below
			out = append(out, Extent{a, sz})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Stats returns (allocs, frees, bytes allocated, live bytes). The
// operation totals are this handle's own; live bytes are machine-wide.
func (h *Heap) Stats() (allocs, frees, bytes, live uint64) {
	for _, s := range h.all {
		live += s.liveBytes
	}
	return h.totalAllocs, h.totalFrees, h.totalBytes, live
}

// Arenas returns the handle's span boundaries in allocation-preference
// order — the local arena first on sharded heaps, the global fallback
// (or the classic whole-heap span) last.
func (h *Heap) Arenas() []Extent {
	out := make([]Extent, 0, len(h.spans))
	for _, s := range h.spans {
		out = append(out, Extent{s.base, uint64(s.limit - s.base)})
	}
	return out
}

// RebuildReport describes a post-crash heap reconstruction.
type RebuildReport struct {
	// ReachableBlocks/Bytes is what the mark phase found live.
	ReachableBlocks int
	ReachableBytes  uint64
	// ReclaimedGaps/Bytes is allocated-looking space between reachable
	// blocks that returned to the free list (leaked allocations of the
	// interrupted transaction among it).
	ReclaimedGaps  int
	ReclaimedBytes uint64
}

// Rebuild reconstructs the allocator state after a crash from the set of
// reachable extents (the mark phase's output): each extent is routed to
// its owning span, reachable blocks become the live set, every gap
// below a span's high-water mark becomes free space. Panics if an
// extent lies outside every span (a corrupt reachability scan). Returns
// a report of what was reclaimed.
func (h *Heap) Rebuild(reachable []Extent) RebuildReport {
	sorted := make([]Extent, len(reachable))
	copy(sorted, reachable)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })

	var rep RebuildReport
	// The spans of a layout are disjoint and the extents sorted, so a
	// span's extents form a contiguous run.
	for _, s := range h.all {
		lo := sort.Search(len(sorted), func(i int) bool { return sorted[i].Addr >= s.base })
		hi := lo
		for hi < len(sorted) && sorted[hi].Addr < s.limit {
			hi++
		}
		s.rebuild(sorted[lo:hi], &rep)
	}
	if rep.ReachableBlocks != len(sorted) {
		for _, e := range sorted {
			if h.spanOf(e.Addr) == nil {
				panic(fmt.Sprintf("txheap: reachable extent %#x outside every span", e.Addr))
			}
		}
	}
	h.resetTx()
	h.rebuiltGaps += uint64(rep.ReclaimedGaps)
	h.rebuiltBytes += rep.ReclaimedBytes
	return rep
}

// resetTx clears the handle's transaction bookkeeping (post-rebuild).
func (h *Heap) resetTx() {
	h.inTx = false
	h.txAllocs = h.txAllocs[:0]
	h.txFrees = h.txFrees[:0]
	h.txBytes = 0
	h.txAllocIdx.invalidate()
	h.txFreeIdx.invalidate()
	h.epochFrees = h.epochFrees[:0]
}

// RebuildSharded reconstructs a sharded heap's spans from the
// reachability scan and clears every handle's transaction bookkeeping.
// The handles share their spans, so the space reconstruction itself is
// performed once.
func RebuildSharded(heaps []*Heap, reachable []Extent) RebuildReport {
	rep := heaps[0].Rebuild(reachable)
	for _, h := range heaps[1:] {
		h.resetTx()
	}
	return rep
}

// Check verifies the allocator's span invariant: within every span, the
// live blocks and the free extents tile [base, bump) exactly — no
// overlap, no unaccounted gap — and nothing lies beyond the bump
// pointer. Crash campaigns run it after a sharded rebuild to assert
// every arena reconciled its live extents with the durable prefix.
func (h *Heap) Check() error {
	for si, s := range h.all {
		ext := make([]Extent, 0, len(s.allocated)+len(s.free))
		for a, sz := range s.allocated { //slpmt:determinism-ok: collected extents are sorted below
			ext = append(ext, Extent{a, sz})
		}
		ext = append(ext, s.free...)
		sort.Slice(ext, func(i, j int) bool { return ext[i].Addr < ext[j].Addr })
		cursor := s.base
		for _, e := range ext {
			if e.Addr < cursor {
				return fmt.Errorf("txheap: span %d: extent %#x overlaps previous (cursor %#x)", si, e.Addr, cursor)
			}
			if e.Addr > cursor {
				return fmt.Errorf("txheap: span %d: unaccounted gap [%#x,%#x)", si, cursor, e.Addr)
			}
			cursor = e.End()
		}
		if cursor > s.bump {
			return fmt.Errorf("txheap: span %d: extents reach %#x beyond bump %#x", si, cursor, s.bump)
		}
		if cursor < s.bump {
			return fmt.Errorf("txheap: span %d: extents end at %#x short of bump %#x", si, cursor, s.bump)
		}
	}
	return nil
}
