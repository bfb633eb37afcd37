package cache

import (
	"fmt"
	"math/rand"
	"os/exec"
	"strings"
	"testing"

	"github.com/persistmem/slpmt/internal/mem"
)

// flatCache is the unpaged tag array the paged Cache replaced: every
// set allocated up front in one backing slice, and Insert scanning the
// set three times (present, free, LRU). It is the reference the paged
// implementation must match line for line.
type flatCache struct {
	ways    int
	sets    [][]Line
	setMask uint64
	tick    uint64
}

func newFlat(cfg Config) *flatCache {
	lines := cfg.SizeBytes / mem.LineSize
	setCount := lines / cfg.Ways
	backing := make([]Line, lines)
	sets := make([][]Line, setCount)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &flatCache{ways: cfg.Ways, sets: sets, setMask: uint64(setCount - 1)}
}

func (c *flatCache) set(la mem.Addr) (int, []Line) {
	s := int((la >> mem.LineShift) & c.setMask)
	return s, c.sets[s]
}

func (c *flatCache) find(addr mem.Addr, bump bool) (*Line, int) {
	la := mem.LineAddr(addr)
	s, set := c.set(la)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == la {
			if bump {
				c.tick++
				set[i].lru = c.tick
			}
			return &set[i], s*c.ways + i
		}
	}
	return nil, -1
}

func (c *flatCache) insert(l Line) (*Line, Line, bool) {
	la := mem.LineAddr(l.Addr)
	l.Addr = la
	_, set := c.set(la)
	c.tick++
	l.lru = c.tick
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == la {
			set[i] = l
			return &set[i], Line{}, false
		}
	}
	for i := range set {
		if set[i].State == Invalid {
			set[i] = l
			return &set[i], Line{}, false
		}
	}
	vi := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	victim := set[vi]
	set[vi] = l
	return &set[vi], victim, true
}

func (c *flatCache) peek(addr mem.Addr) *Line {
	l, _ := c.find(addr, false)
	return l
}

func (c *flatCache) remove(addr mem.Addr) (Line, bool) {
	l := c.peek(addr)
	if l == nil {
		return Line{}, false
	}
	out := *l
	*l = Line{}
	return out, true
}

func (c *flatCache) lines() []Line {
	var out []Line
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].State != Invalid {
				out = append(out, c.sets[s][i])
			}
		}
	}
	return out
}

// refGeometries are the levels the paged cache is checked against the
// flat reference on: the 2-way unit-test geometry and the default
// machine's L1, L2 and L3.
var refGeometries = []Config{
	{Name: "t2", SizeBytes: 4 * mem.LineSize, Ways: 2},
	{Name: "L1", SizeBytes: 32 << 10, Ways: 8},
	{Name: "L2", SizeBytes: 256 << 10, Ways: 4},
	{Name: "L3", SizeBytes: 2 << 20, Ways: 16},
}

// TestCacheMatchesFlatReference drives the paged cache and the flat
// reference with the same random operation sequence and compares every
// result — returned lines, victims, slots — and the whole ForEach walk
// after every step. Besides the API calls, the sequence zeroes LRU ages
// ("Age") so that evictions also meet tied ages. Addresses concentrate on a few dozen sets spread
// over the array, with three times as many tags as ways, so sets fill,
// evict and empty again while most pages stay absent.
func TestCacheMatchesFlatReference(t *testing.T) {
	for _, cfg := range refGeometries {
		t.Run(cfg.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cfg.SizeBytes)))
			c, ref := New(cfg), newFlat(cfg)
			sets := len(ref.sets)
			hot := make([]uint64, 24)
			for i := range hot {
				hot[i] = uint64(rng.Intn(sets))
			}
			addr := func() mem.Addr {
				s := hot[rng.Intn(len(hot))]
				tag := uint64(rng.Intn(3 * cfg.Ways))
				return (tag*uint64(sets)+s)<<mem.LineShift | uint64(rng.Intn(mem.LineSize))
			}
			steps := 3000
			if testing.Short() {
				steps = 500
			}
			for step := 0; step < steps; step++ {
				a := addr()
				var op string
				switch k := rng.Intn(10); {
				case k < 4:
					op = "Insert"
					l := Line{Addr: a, State: State(1 + rng.Intn(3)), Persist: rng.Intn(2) == 0,
						LogBits: uint8(rng.Intn(256)), TxID: uint8(rng.Intn(4))}
					gl, gv, ge := c.Insert(l)
					wl, wv, we := ref.insert(l)
					if *gl != *wl || gv != wv || ge != we {
						t.Fatalf("step %d Insert(%#x) = %+v, %+v, %v; reference %+v, %+v, %v", step, a, *gl, gv, ge, *wl, wv, we)
					}
				case k < 6:
					op = "Lookup"
					gl := c.Lookup(a)
					wl, _ := ref.find(a, true)
					sameLine(t, step, op, a, gl, wl)
				case k < 7:
					op = "Peek"
					sameLine(t, step, op, a, c.Peek(a), ref.peek(a))
				case k < 8:
					op = "PeekSlot"
					gl, gs := c.PeekSlot(a)
					wl, ws := ref.find(a, false)
					sameLine(t, step, op, a, gl, wl)
					if gs != ws {
						t.Fatalf("step %d PeekSlot(%#x) slot %d, reference %d", step, a, gs, ws)
					}
				case k < 9:
					op = "Age"
					// Zero the line's LRU age in both. Ages are otherwise
					// unique ticks; this is what makes them tie, so the
					// victim tie-break is compared too.
					gl, wl := c.Peek(a), ref.peek(a)
					sameLine(t, step, op, a, gl, wl)
					if gl != nil {
						gl.lru, wl.lru = 0, 0
					}
				default:
					op = "Remove"
					gl, gok := c.Remove(a)
					wl, wok := ref.remove(a)
					if gl != wl || gok != wok {
						t.Fatalf("step %d Remove(%#x) = %+v, %v; reference %+v, %v", step, a, gl, gok, wl, wok)
					}
				}
				if c.tick != ref.tick {
					t.Fatalf("step %d %s: tick %d, reference %d", step, op, c.tick, ref.tick)
				}
				var got []Line
				c.ForEach(func(l *Line) { got = append(got, *l) })
				if want := ref.lines(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("step %d %s(%#x): ForEach walk diverged:\n got %v\nwant %v", step, op, a, got, want)
				}
			}
		})
	}
}

func sameLine(t *testing.T, step int, op string, a mem.Addr, got, want *Line) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && *got != *want {
		t.Fatalf("step %d %s(%#x) = %v; reference %v", step, op, a, got, want)
	}
}

// presentPages counts the materialized pages of c's tag array.
func presentPages(c *Cache) int {
	n := 0
	for _, p := range c.pages {
		if p != &absent {
			n++
		}
	}
	return n
}

// TestLazyPages checks the paging contract: a new cache holds no
// pages, misses materialize none, and one insert materializes exactly
// one page.
func TestLazyPages(t *testing.T) {
	for _, cfg := range refGeometries {
		c := New(cfg)
		if n := presentPages(c); n != 0 {
			t.Errorf("%s: new cache holds %d pages", cfg.Name, n)
		}
		if c.Lookup(0x4000) != nil || c.Peek(0x4000) != nil {
			t.Errorf("%s: hit on an empty cache", cfg.Name)
		}
		if l, s := c.PeekSlot(0x4000); l != nil || s != -1 {
			t.Errorf("%s: PeekSlot on an empty cache = %v, %d", cfg.Name, l, s)
		}
		if _, ok := c.Remove(0x4000); ok {
			t.Errorf("%s: Remove on an empty cache succeeded", cfg.Name)
		}
		if n := presentPages(c); n != 0 {
			t.Errorf("%s: misses materialized %d pages", cfg.Name, n)
		}
		c.Insert(Line{Addr: 0x4000, State: Exclusive})
		if n := presentPages(c); n != 1 {
			t.Errorf("%s: one insert materialized %d pages", cfg.Name, n)
		}
	}
}

// TestPresentPageAccessDoesNotAllocate checks that Lookup, Peek and
// Insert on a page that already exists allocate nothing.
func TestPresentPageAccessDoesNotAllocate(t *testing.T) {
	c := New(Config{Name: "L3", SizeBytes: 2 << 20, Ways: 16})
	const a mem.Addr = 0x4000
	c.Insert(Line{Addr: a, State: Exclusive})
	// Same page as a: the next set up, a different tag.
	b := a + mem.LineSize + 7<<(mem.LineShift+11)
	for name, fn := range map[string]func(){
		"Lookup": func() { c.Lookup(a) },
		"Peek":   func() { c.Peek(a) },
		"Insert": func() { c.Insert(Line{Addr: b, State: Modified}) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s on a present page: %v allocs, want 0", name, n)
		}
	}
	if n := presentPages(c); n != 1 {
		t.Errorf("accesses within one page materialized %d pages", n)
	}
}

// TestLookupPathInlines checks that the lookup-path methods stay within
// the compiler's inlining budget, as they were before paging: the
// machine's access and snoop paths call them for every simulated
// access, and a method pushed over the budget costs a call each time.
func TestLookupPathInlines(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package with -gcflags=-m")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not found")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, m := range []string{"Lookup", "Peek", "PeekSlot", "Remove"} {
		if !strings.Contains(string(out), "can inline (*Cache)."+m+"\n") {
			t.Errorf("(*Cache).%s is no longer inlinable", m)
		}
	}
}
