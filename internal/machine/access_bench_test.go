package machine_test

// Micro-benchmarks of Core.AccessLine, the simulator's hottest frame,
// on the core of the single-core platform slpmt.New builds (engine
// hooks installed). Run with `go test -bench=Micro ./internal/machine`.

import (
	"testing"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/cache"
	"github.com/persistmem/slpmt/internal/mem"
)

var benchLine *cache.Line

// BenchmarkMicroAccessLineL1Hit reads one line that stays in L1.
func BenchmarkMicroAccessLineL1Hit(b *testing.B) {
	c := slpmt.New(slpmt.Options{}).Mach
	a := c.Layout.HeapBase
	c.AccessLine(a, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLine = c.AccessLine(a, false)
	}
}

// BenchmarkMicroAccessLineL3Miss reads lines cyclically over twice the
// LLC's capacity, so under LRU every access misses L1, L2 and L3 and
// fills from PM. A warm-up pass materializes every cache page first.
func BenchmarkMicroAccessLineL3Miss(b *testing.B) {
	c := slpmt.New(slpmt.Options{}).Mach
	span := 2 * c.Config().L3.SizeBytes
	lines := int(span / mem.LineSize)
	for i := 0; i < lines; i++ {
		c.AccessLine(c.Layout.HeapBase+mem.Addr(i)*mem.LineSize, false)
	}
	hits := c.Stats.L1Hits + c.Stats.L2Hits + c.Stats.L3Hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLine = c.AccessLine(c.Layout.HeapBase+mem.Addr(i%lines)*mem.LineSize, false)
	}
	b.StopTimer()
	if c.Stats.L1Hits+c.Stats.L2Hits+c.Stats.L3Hits != hits {
		b.Fatal("a cyclic walk over twice the LLC hit in a cache")
	}
}
