package pmem

// Micro-benchmarks of the WPQ model's host cost. Run with
// `go test -bench=Micro ./internal/pmem`.

import "testing"

// BenchmarkMicroPersistAsyncBacklog posts persists onto an async
// backlog of 16k entries, 256x the WPQ, that drains as fast as it
// fills. Each post must cost O(WPQ entries), not O(backlog).
func BenchmarkMicroPersistAsyncBacklog(b *testing.B) {
	d := New(Config{Size: 1 << 20})
	p := make([]byte, 64)
	const backlog = 16 << 10
	for i := 0; i < backlog; i++ {
		d.PersistAsync(0, uint64(i%4096)*64, p)
	}
	step := d.Config().WriteCycles / uint64(d.Config().Banks) // the drain rate
	now := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += step
		d.PersistAsync(now, uint64(i%4096)*64, p)
	}
	b.StopTimer()
	b.ReportMetric(float64(d.QueueDepth(now)), "backlog")
}
