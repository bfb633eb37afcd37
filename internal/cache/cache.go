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
package cache

import (
	"fmt"

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

// Cache is one set-associative level. Not safe for concurrent use.
type Cache struct {
	cfg      Config
	sets     [][]Line
	setCount int
	setMask  uint64
	tick     uint64

	// counters maintained for introspection; the machine layer mirrors
	// the interesting ones into stats.Counters.
	hits, misses, evicts uint64
}

// New builds a cache level. SizeBytes must be a multiple of
// Ways*LineSize and the resulting set count must be a power of two.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: invalid geometry")
	}
	lines := cfg.SizeBytes / mem.LineSize
	if lines%cfg.Ways != 0 {
		panic("cache: size not divisible by ways")
	}
	setCount := lines / cfg.Ways
	if setCount&(setCount-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, setCount))
	}
	sets := make([][]Line, setCount)
	backing := make([]Line, lines)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		setCount: setCount,
		setMask:  uint64(setCount - 1),
	}
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the hit latency in cycles.
func (c *Cache) Latency() uint64 { return c.cfg.LatencyCycles }

func (c *Cache) set(addr mem.Addr) []Line {
	return c.sets[(addr>>mem.LineShift)&c.setMask]
}

// Lookup returns the line holding addr, bumping its LRU age, or nil on a
// miss. addr need not be line-aligned.
func (c *Cache) Lookup(addr mem.Addr) *Line {
	la := mem.LineAddr(addr)
	set := c.set(la)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == la {
			c.tick++
			set[i].lru = c.tick
			c.hits++
			return &set[i]
		}
	}
	c.misses++
	return nil
}

// Peek returns the line holding addr without affecting LRU or counters,
// or nil if absent.
func (c *Cache) Peek(addr mem.Addr) *Line {
	la := mem.LineAddr(addr)
	set := c.set(la)
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
	s := int((la >> mem.LineShift) & c.setMask)
	set := c.sets[s]
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == la {
			return &set[i], s*c.cfg.Ways + i
		}
	}
	return nil, -1
}

// Insert places a line with the given contents into the cache and
// returns a pointer to it. If a victim had to be evicted, its copy is
// returned with evicted=true. The caller (the machine layer) is
// responsible for propagating the victim down the hierarchy. Inserting a
// line that is already present overwrites its metadata.
func (c *Cache) Insert(l Line) (inserted *Line, victim Line, evicted bool) {
	la := mem.LineAddr(l.Addr)
	l.Addr = la
	set := c.set(la)
	c.tick++
	l.lru = c.tick

	// Already present? Overwrite in place.
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == la {
			set[i] = l
			return &set[i], Line{}, false
		}
	}
	// Free way?
	for i := range set {
		if set[i].State == Invalid {
			set[i] = l
			return &set[i], Line{}, false
		}
	}
	// Evict LRU.
	vi := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	victim = set[vi]
	set[vi] = l
	c.evicts++
	return &set[vi], victim, true
}

// Remove deletes the line holding addr, returning its copy and true if
// it was present.
func (c *Cache) Remove(addr mem.Addr) (Line, bool) {
	la := mem.LineAddr(addr)
	set := c.set(la)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == la {
			l := set[i]
			set[i] = Line{}
			return l, true
		}
	}
	return Line{}, false
}

// ForEach invokes fn on every valid line. fn may mutate the line but
// must not insert or remove lines.
func (c *Cache) ForEach(fn func(*Line)) {
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].State != Invalid {
				fn(&c.sets[s][i])
			}
		}
	}
}

// Flush invalidates every line. Victims are discarded; callers needing
// writebacks must ForEach first.
func (c *Cache) Flush() {
	for s := range c.sets {
		for i := range c.sets[s] {
			//slpmt:obsonly-ok: false edge from the stream writer's flusher interface — Cache satisfies it structurally but is never registered as a stream consumer (cache and trace/stream share no conversion site)
			c.sets[s][i] = Line{}
		}
	}
}

// Count returns the number of valid lines.
func (c *Cache) Count() int {
	n := 0
	c.ForEach(func(*Line) { n++ })
	return n
}

// Stats returns (hits, misses, evictions) since creation.
func (c *Cache) Stats() (hits, misses, evicts uint64) {
	return c.hits, c.misses, c.evicts
}
