package cache

import (
	"testing"
	"testing/quick"

	"github.com/persistmem/slpmt/internal/mem"
)

func newL1() *Cache {
	return New(Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 4})
}

func TestLookupMissThenInsert(t *testing.T) {
	c := newL1()
	if c.Lookup(0x1000) != nil {
		t.Fatal("hit on empty cache")
	}
	if c.tick != 0 {
		t.Errorf("a miss aged the cache: tick=%d", c.tick)
	}
	c.Insert(Line{Addr: 0x1000, State: Exclusive})
	l := c.Lookup(0x1000 + 63) // any byte of the line
	if l == nil || l.Addr != 0x1000 {
		t.Fatal("line not found after insert")
	}
	if c.tick != 2 || l.lru != c.tick {
		t.Errorf("hit did not bump the LRU age: tick=%d lru=%d", c.tick, l.lru)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache with 2 sets: lines 0, 128 map to set 0; 64, 192 to set 1.
	c := New(Config{Name: "t", SizeBytes: 4 * mem.LineSize, Ways: 2, LatencyCycles: 1})
	c.Insert(Line{Addr: 0, State: Exclusive})
	c.Insert(Line{Addr: 128, State: Exclusive})
	c.Lookup(0) // make 0 most recent
	_, victim, evicted := c.Insert(Line{Addr: 256, State: Exclusive})
	if !evicted || victim.Addr != 128 {
		t.Errorf("expected LRU victim 128, got %v evicted=%v", victim.Addr, evicted)
	}
	if c.Peek(0) == nil || c.Peek(256) == nil {
		t.Error("resident lines wrong after eviction")
	}
}

func TestInsertOverwritesInPlace(t *testing.T) {
	c := newL1()
	c.Insert(Line{Addr: 0x40, State: Modified, LogBits: 0x0F})
	_, _, evicted := c.Insert(Line{Addr: 0x40, State: Exclusive, LogBits: 0xF0})
	if evicted {
		t.Error("overwrite should not evict")
	}
	l := c.Peek(0x40)
	if l.LogBits != 0xF0 || l.State != Exclusive {
		t.Errorf("overwrite did not take: %+v", l)
	}
	if n := countLines(c); n != 1 {
		t.Errorf("count = %d, want 1", n)
	}
}

func TestRemove(t *testing.T) {
	c := newL1()
	c.Insert(Line{Addr: 0x80, State: Modified, TxID: 3})
	l, ok := c.Remove(0x80)
	if !ok || l.TxID != 3 {
		t.Fatal("remove lost line state")
	}
	if _, ok := c.Remove(0x80); ok {
		t.Error("double remove succeeded")
	}
}

func TestFoldReplicateLogBits(t *testing.T) {
	cases := []struct{ l1, l2 uint8 }{
		{0xFF, 0x03},
		{0x0F, 0x01},
		{0xF0, 0x02},
		{0x0E, 0x00}, // partial low group folds away
		{0x7F, 0x01},
		{0x00, 0x00},
	}
	for _, c := range cases {
		if got := FoldLogBits(c.l1); got != c.l2 {
			t.Errorf("Fold(%#x) = %#x, want %#x", c.l1, got, c.l2)
		}
	}
	// Replication is exact for folded values.
	if ReplicateLogBits(0x03) != 0xFF || ReplicateLogBits(0x01) != 0x0F || ReplicateLogBits(0x02) != 0xF0 {
		t.Error("replicate broken")
	}
}

// TestFoldConservative: folding then replicating never invents log bits
// (false positives would lose undo records); it may only drop them.
func TestFoldConservative(t *testing.T) {
	f := func(bits uint8) bool {
		round := ReplicateLogBits(FoldLogBits(bits))
		return round&^bits == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// countLines returns the number of valid lines.
func countLines(c *Cache) int {
	n := 0
	c.ForEach(func(*Line) { n++ })
	return n
}

func TestForEachAndRemove(t *testing.T) {
	c := newL1()
	for i := 0; i < 10; i++ {
		c.Insert(Line{Addr: mem.Addr(i * 64), State: Modified})
	}
	var addrs []mem.Addr
	c.ForEach(func(l *Line) { addrs = append(addrs, l.Addr) })
	if len(addrs) != 10 {
		t.Errorf("ForEach visited %d, want 10", len(addrs))
	}
	for _, a := range addrs {
		c.Remove(a)
	}
	if n := countLines(c); n != 0 {
		t.Errorf("removing every visited line left %d", n)
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "bad", SizeBytes: 0, Ways: 4},
		{Name: "bad", SizeBytes: 192, Ways: 4},        // not divisible
		{Name: "bad", SizeBytes: 3 * 64 * 4, Ways: 4}, // sets not power of two
		{Name: "bad", SizeBytes: 12 * 64, Ways: 3},    // ways not power of two
		{Name: "bad", SizeBytes: 128 * 64, Ways: 128}, // set larger than a page
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Error("state strings broken")
	}
}

func TestPeekSlotIsForEachPosition(t *testing.T) {
	// 4 sets x 4 ways; the addresses land in several sets and ways.
	c := New(Config{Name: "t", SizeBytes: 16 * mem.LineSize, Ways: 4, LatencyCycles: 1})
	for _, a := range []mem.Addr{0x1c0, 0x40, 0x400, 0x80, 0x7c0, 0x0, 0x440, 0x100} {
		c.Insert(Line{Addr: a, State: Exclusive})
	}
	slot := 0
	c.ForEach(func(l *Line) {
		got, s := c.PeekSlot(l.Addr + 5)
		if got != l || s < slot {
			t.Errorf("PeekSlot(%#x) = %p, slot %d; ForEach visits %p after slot %d", l.Addr, got, s, l, slot)
		}
		slot = s + 1
	})
	if l, s := c.PeekSlot(0x12340); l != nil || s != -1 {
		t.Errorf("PeekSlot of an absent line = %v, %d", l, s)
	}
}
