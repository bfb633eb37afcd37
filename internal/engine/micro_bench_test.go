package engine

// Micro-benchmarks of the simulator substrates themselves — the
// library's own performance, not paper figures. Run with
// `go test -bench=Micro ./internal/engine`.

import (
	"fmt"
	"testing"

	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/logbuf"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/signature"
)

func BenchmarkMicroTransactionRoundTrip(b *testing.B) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Begin()
		a := base + mem.Addr(i%4096)*mem.LineSize
		e.StoreU64(a, uint64(i), isa.Store, isa.Plain)
		e.StoreU64(a+8, uint64(i), isa.StoreT, isa.LogFree)
		e.Commit()
	}
	b.ReportMetric(float64(m.Clk)/float64(b.N), "simcycles/txn")
}

func BenchmarkMicroStoreLogged(b *testing.B) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.StoreU64(base+mem.Addr(i%(1<<15))*8, uint64(i), isa.Store, isa.Plain)
		if i%4096 == 4095 {
			// Bound the transaction size (the log area holds ~256k
			// word records per transaction).
			e.Commit()
			e.Begin()
		}
	}
	b.StopTimer()
	e.Commit()
	_ = m
}

func BenchmarkMicroLoadHit(b *testing.B) {
	e, m := newEng(slpmtCfg())
	base := m.Layout.HeapBase
	e.Begin()
	e.StoreU64(base, 1, isa.Store, isa.Plain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.LoadU64(base)
	}
	b.StopTimer()
	e.Commit()
	_ = m
}

// BenchmarkMicroLogWriterAppendSync measures the raw logWriter: one
// record appended per "transaction", with the watermark sync amortized
// over a window of 1 (per-transaction protocol) or 16 (group commit).
// The append/sync path itself is allocation-free — the record payload
// rides in a caller-reused buffer and the writer packs it into its
// line staging without copying out.
func BenchmarkMicroLogWriterAppendSync(b *testing.B) {
	for _, window := range []int{1, 16} {
		b.Run(fmt.Sprintf("w%d", window), func(b *testing.B) {
			w, m := newWriter()
			payload := make([]byte, 8)
			r := logbuf.Record{Addr: 0x1000, Data: payload}
			limit := m.Layout.LogSize - 4096
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Addr = mem.Addr(0x1000 + (i%512)*8)
				w.append(r)
				if (i+1)%window == 0 {
					w.sync()
				}
				if w.nextOff >= limit {
					b.StopTimer()
					w.reset(uint64(i))
					b.StartTimer()
				}
			}
			b.StopTimer()
			w.sync()
		})
	}
}

// BenchmarkMicroLogAppendSync drives the full engine commit path in
// steady state, per-transaction (w1) against group commit (w16) —
// the end-to-end cost the logWriter benchmark isolates.
func BenchmarkMicroLogAppendSync(b *testing.B) {
	for _, w := range []int{1, 16} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			cfg := slpmtCfg()
			cfg.CommitWindow = w
			e, m := newEng(cfg)
			base := m.Layout.HeapBase
			// Warm the working set and the epoch maps.
			for i := 0; i < 64; i++ {
				e.Begin()
				e.StoreU64(base+mem.Addr(i%16)*mem.LineSize, uint64(i), isa.Store, isa.Plain)
				e.Commit()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Begin()
				e.StoreU64(base+mem.Addr(i%16)*mem.LineSize, uint64(i), isa.Store, isa.Plain)
				e.Commit()
			}
			b.StopTimer()
			e.FinishEpoch()
			b.ReportMetric(float64(m.Clk)/float64(b.N), "simcycles/txn")
		})
	}
}

func BenchmarkMicroLogBufferInsert(b *testing.B) {
	buf := logbuf.New(func([]logbuf.Record) {})
	data := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Insert(logbuf.Record{Addr: mem.Addr(i%(1<<16)) * 8, Data: data})
	}
}

func BenchmarkMicroSignature(b *testing.B) {
	var s signature.Signature
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mem.Addr(i) * mem.LineSize
		s.Add(a)
		if !s.MayContain(a) {
			b.Fatal("false negative")
		}
	}
}

// BenchmarkMicroCommitAfterLargeTxn measures small transactions on a
// fresh engine and on one that has just run a 10k-line transaction.
// The per-transaction bookkeeping must scale with the transaction, not
// with the largest one seen, so both report the same ns/op.
func BenchmarkMicroCommitAfterLargeTxn(b *testing.B) {
	for _, large := range []int{0, 10000} {
		b.Run(fmt.Sprintf("after%d", large), func(b *testing.B) {
			e, m := newEng(slpmtCfg())
			base := m.Layout.HeapBase
			if large > 0 {
				e.Begin()
				for i := 0; i < large; i++ {
					e.StoreU64(base+mem.Addr(i)*mem.LineSize, uint64(i), isa.Store, isa.Plain)
				}
				e.Commit()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Begin()
				e.StoreU64(base+mem.Addr(i%64)*mem.LineSize, uint64(i), isa.Store, isa.Plain)
				e.Commit()
			}
		})
	}
}

// BenchmarkMicroAbortUndo aborts an undo transaction of eight logged
// lines, per-transaction (w1) and under group commit (w4). Each abort
// reads back only the log prefix the header or the writer bounds, so
// its cost follows the transaction, not the 4 MiB log area.
func BenchmarkMicroAbortUndo(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			cfg := slpmtCfg()
			cfg.CommitWindow = w
			e, m := newEng(cfg)
			base := m.Layout.HeapBase
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Begin()
				for l := 0; l < 8; l++ {
					e.StoreU64(base+mem.Addr(l)*mem.LineSize, uint64(i), isa.Store, isa.Plain)
				}
				e.Abort()
			}
		})
	}
}
