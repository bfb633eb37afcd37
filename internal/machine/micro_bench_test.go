package machine

// Micro-benchmarks of a crash point's fixed host cost: building the
// platform and taking the crash snapshot. Run with
// `go test -bench=Micro ./internal/machine`.

import (
	"testing"

	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
)

// BenchmarkMicroMachineNew builds the 2-core, 2-socket platform a crash
// campaign point starts from. The images are sparse, so this costs the
// caches and the page tables, not the PM capacity.
func BenchmarkMicroMachineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchMachine = New(Config{Cores: 2, Sockets: 2})
	}
}

// Sinks keep the benchmarked results live.
var (
	benchMachine *Machine
	benchImage   *pmem.Image
)

// BenchmarkMicroCrash persists one line and takes a crash snapshot, on
// a machine whose durable image holds 256 written pages. The snapshot
// shares the pages copy-on-write, so each iteration costs the page
// table plus the one page the next persist copies back, not the image.
func BenchmarkMicroCrash(b *testing.B) {
	m := New(Config{Cores: 2, Sockets: 2})
	c := m.Core(0)
	const pages = 256
	line := make([]byte, mem.LineSize)
	for p := 0; p < pages; p++ {
		c.PersistData(c.Layout.HeapBase+mem.Addr(p)*pmem.PageSize, line)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PersistData(c.Layout.HeapBase+mem.Addr(i%pages)*pmem.PageSize, line)
		benchImage = m.Crash()
	}
}
