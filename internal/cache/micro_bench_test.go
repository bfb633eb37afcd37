package cache

// Micro-benchmarks of the tag array on the default machine's L3
// geometry. Run with `go test -bench=Micro ./internal/cache`.

import (
	"testing"

	"github.com/persistmem/slpmt/internal/mem"
)

// fullL3 returns the default L3 (2 MiB, 16-way) with every way of
// every set holding a line, and its line count (a power of two); tag t
// of set s is at (t·sets+s)·LineSize.
func fullL3() (*Cache, int) {
	c := New(Config{Name: "L3", SizeBytes: 2 << 20, Ways: 16, LatencyCycles: 40})
	lines := (2 << 20) / mem.LineSize
	for i := 0; i < lines; i++ {
		c.Insert(Line{Addr: mem.Addr(i) * mem.LineSize, State: Exclusive})
	}
	return c, lines
}

// BenchmarkMicroCacheLookupHit looks up resident lines of a full L3,
// striding across sets (and so across pages).
func BenchmarkMicroCacheLookupHit(b *testing.B) {
	c, lines := fullL3()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(mem.Addr(i*97&(lines-1))*mem.LineSize) == nil {
			b.Fatal("miss on a resident line")
		}
	}
}

// BenchmarkMicroCacheInsertEvict inserts new lines into a full L3, so
// every insert scans a full set and evicts its LRU way.
func BenchmarkMicroCacheInsertEvict(b *testing.B) {
	c, lines := fullL3()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, evicted := c.Insert(Line{Addr: mem.Addr(lines+i) * mem.LineSize, State: Exclusive}); !evicted {
			b.Fatal("insert into a full set did not evict")
		}
	}
}
