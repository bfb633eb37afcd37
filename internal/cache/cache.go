// Package cache implements the set-associative caches of the simulated
// hierarchy, extended with the per-line SLPMT metadata of Figure 5:
//
//   - a persist bit: the line must reach persistent memory at transaction
//     commit (eager persistency);
//   - a log bitmap: which parts of the line already have a log record
//     (8 bits, one per 8-byte word, in L1; 2 bits, one per 32-byte half,
//     in L2; none in L3);
//   - a 2-bit transaction ID: which transaction last updated the line,
//     used by lazy persistency to detect cross-transaction accesses.
//
// The hierarchy is managed as a move (victim) hierarchy: a line lives in
// exactly one level at a time, so the SLPMT metadata is single-homed.
// On an L1 eviction the 8 L1 log bits are folded into 2 L2 bits by
// conjunction; on a fetch from L2 into L1 they are replicated back
// (Figure 5). L3 carries no SLPMT metadata: lines fetched from L3 start
// with zeroed bits, which can cause benign duplicate logging (§III-B1).
//
// Lines also carry a MESI coherence state. The single-core evaluation
// exercises only the E/M states; on a multi-core machine the snooping
// protocol across the cores' private caches lives in internal/machine
// (snoopFetch/snoopUpgrade), and aborts drop lines there too (§V-B).
//
// A level's tag array is paged: pages of 64 lines, each holding whole
// consecutive sets, materialized by the first Insert that lands in
// them. An absent page means its sets are empty, so a new cache costs
// its page table and a machine costs the lines it touches. Placement
// (set, way, LRU tie-break) and ForEach order are those of a flat
// array; see DESIGN.md §16.
package cache

import (
	"fmt"
	"math/bits"

	"github.com/persistmem/slpmt/internal/mem"
)

// State is a MESI coherence state.
type State uint8

const (
	// Invalid: the line holds no data.
	Invalid State = iota
	// Shared: clean, possibly present in other caches.
	Shared
	// Exclusive: clean, present only here.
	Exclusive
	// Modified: dirty, present only here.
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Line is one cache line's tag-array entry. Data contents live in the
// machine's functional memory image; the cache tracks placement and
// metadata only.
type Line struct {
	// Addr is the line-aligned address.
	Addr mem.Addr
	// State is the MESI coherence state. Any state other than Invalid
	// means present.
	State State
	// Persist is the SLPMT persist bit.
	Persist bool
	// LogBits is the SLPMT log bitmap. In L1 all 8 bits are meaningful
	// (bit i covers word i); in L2 only bits 0-1 (bit j covers bytes
	// 32j..32j+31); in L3 the field is unused and always zero.
	LogBits uint8
	// TxID is the 2-bit transaction ID of the updating transaction.
	TxID uint8
	// lru is the replacement timestamp.
	lru uint64
}

// L1LogMaskFull is the LogBits value of a fully logged L1 line.
const L1LogMaskFull = 0xFF

// L2LogMaskFull is the LogBits value of a fully logged L2 line.
const L2LogMaskFull = 0x03

// FoldLogBits converts an 8-bit L1 word bitmap into the 2-bit L2 bitmap:
// each L2 bit is the logical conjunction of the corresponding four L1
// bits (Figure 5). Information is lost when a 32-byte half is only
// partially logged.
func FoldLogBits(l1 uint8) uint8 {
	var l2 uint8
	if l1&0x0F == 0x0F {
		l2 |= 1
	}
	if l1&0xF0 == 0xF0 {
		l2 |= 2
	}
	return l2
}

// ReplicateLogBits converts a 2-bit L2 bitmap back to the 8-bit L1
// bitmap, replicating each L2 bit into its four words.
func ReplicateLogBits(l2 uint8) uint8 {
	var l1 uint8
	if l2&1 != 0 {
		l1 |= 0x0F
	}
	if l2&2 != 0 {
		l1 |= 0xF0
	}
	return l1
}

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	// LatencyCycles is the access (hit) latency of this level.
	LatencyCycles uint64
}

// A page of a tag array is pageLines consecutive lines: a power of two
// no smaller than any level's associativity, so a page holds
// pageLines/ways whole, consecutive sets.
const (
	pageShift = 6
	pageLines = 1 << pageShift
)

// page is one lazily materialized block of a tag array.
type page [pageLines]Line

// absent stands in for every page not yet materialized: all its lines
// are Invalid and it is never written (Insert materializes a real page
// first, and nothing else writes a line it did not find). Pointing
// absent slots at it rather than leaving them nil spares the lookup
// path a nil branch, which keeps Lookup, Peek, PeekSlot and Remove
// within the compiler's inlining budget.
var absent page

// Cache is one set-associative level. Not safe for concurrent use.
//
// Lines are numbered by slot, set·ways+way, and the tag array is paged:
// pages[p] holds slots [p·pageLines, (p+1)·pageLines). A page-table
// entry holding &absent means every set in that page is empty. New allocates only the
// page table; Insert materializes a page on first use. Pages never
// move, so *Line pointers stay stable.
type Cache struct {
	latency   uint64
	ways      uint64
	slotShift uint   // LineShift - log2(ways)
	slotMask  uint64 // (set count - 1) · ways
	pages     []*page
	tick      uint64
}

// New builds a cache level. SizeBytes must be a multiple of
// Ways*LineSize, Ways a power of two no larger than a page (64 lines),
// and the resulting set count a power of two.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: invalid geometry")
	}
	if cfg.Ways&(cfg.Ways-1) != 0 || cfg.Ways > pageLines {
		panic(fmt.Sprintf("cache %s: %d ways is not a power of two up to %d", cfg.Name, cfg.Ways, pageLines))
	}
	lines := cfg.SizeBytes / mem.LineSize
	if lines%cfg.Ways != 0 {
		panic("cache: size not divisible by ways")
	}
	setCount := lines / cfg.Ways
	if setCount&(setCount-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, setCount))
	}
	pages := make([]*page, (lines+pageLines-1)>>pageShift)
	for i := range pages {
		pages[i] = &absent
	}
	return &Cache{
		latency:   cfg.LatencyCycles,
		ways:      uint64(cfg.Ways),
		slotShift: mem.LineShift - uint(bits.TrailingZeros(uint(cfg.Ways))),
		slotMask:  uint64(setCount-1) * uint64(cfg.Ways),
		pages:     pages,
	}
}

// Latency returns the hit latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// slot0 returns the slot of way 0 of the set the line-aligned address
// la maps to: (set index)·ways, as one shift and one mask. The low
// LineShift bits of la are zero, so shifting right by LineShift-log2(ways)
// leaves the way bits zero. No division on the lookup path.
func (c *Cache) slot0(la mem.Addr) uint64 {
	return la >> c.slotShift & c.slotMask
}

// set returns the ways of the set whose first slot is s0. On an absent
// page they are absent's Invalid lines, so a lookup simply misses.
func (c *Cache) set(s0 uint64) []Line {
	return c.pages[s0>>pageShift][s0&(pageLines-1):][:c.ways]
}

// Lookup returns the line holding addr, bumping its LRU age, or nil on a
// miss. addr need not be line-aligned.
func (c *Cache) Lookup(addr mem.Addr) *Line {
	la := mem.LineAddr(addr)
	set := c.set(c.slot0(la))
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == la {
			c.tick++
			set[i].lru = c.tick
			return &set[i]
		}
	}
	return nil
}

// Peek returns the line holding addr without affecting LRU, or nil if
// absent.
func (c *Cache) Peek(addr mem.Addr) *Line {
	la := mem.LineAddr(addr)
	set := c.set(c.slot0(la))
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == la {
			return &set[i]
		}
	}
	return nil
}

// PeekSlot is Peek that also returns the line's slot, set·ways+way:
// the position at which ForEach would visit it. Callers that resolve a
// known address set line by line sort by slot to reproduce a
// whole-cache walk's order. The slot is -1 when the line is absent.
func (c *Cache) PeekSlot(addr mem.Addr) (*Line, int) {
	la := mem.LineAddr(addr)
	s0 := c.slot0(la)
	set := c.set(s0)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == la {
			return &set[i], int(s0) + i
		}
	}
	return nil, -1
}

// Insert places a line with the given contents into the cache and
// returns a pointer to it. If a victim had to be evicted, its copy is
// returned with evicted=true. The caller (the machine layer) is
// responsible for propagating the victim down the hierarchy. Inserting a
// line that is already present overwrites its metadata.
//
// The way is chosen in one pass over the set: the line's own way if it
// is present, else the lowest free way, else the lowest-index way with
// the minimum LRU age.
func (c *Cache) Insert(l Line) (inserted *Line, victim Line, evicted bool) {
	la := mem.LineAddr(l.Addr)
	l.Addr = la
	s0 := c.slot0(la)
	if c.pages[s0>>pageShift] == &absent {
		c.materialize(s0 >> pageShift)
	}
	set := c.set(s0)
	c.tick++
	l.lru = c.tick

	free, vi := -1, 0
	for i := range set {
		switch {
		case set[i].State == Invalid:
			if free < 0 {
				free = i
			}
		case set[i].Addr == la:
			set[i] = l
			return &set[i], Line{}, false
		case set[i].lru < set[vi].lru:
			vi = i
		}
	}
	if free >= 0 {
		set[free] = l
		return &set[free], Line{}, false
	}
	victim = set[vi]
	set[vi] = l
	return &set[vi], victim, true
}

// materialize allocates page p: Insert's cold path, kept out of line.
//
//go:noinline
func (c *Cache) materialize(p uint64) {
	c.pages[p] = new(page)
}

// Remove deletes the line holding addr, returning its copy and true if
// it was present.
func (c *Cache) Remove(addr mem.Addr) (Line, bool) {
	la := mem.LineAddr(addr)
	set := c.set(c.slot0(la))
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == la {
			l := set[i]
			set[i] = Line{}
			return l, true
		}
	}
	return Line{}, false
}

// ForEach invokes fn on every valid line in slot (set·ways+way) order.
// fn may mutate the line but must not insert or remove lines.
func (c *Cache) ForEach(fn func(*Line)) {
	for _, p := range c.pages {
		if p == &absent {
			continue
		}
		for i := range p {
			if p[i].State != Invalid {
				fn(&p[i])
			}
		}
	}
}
