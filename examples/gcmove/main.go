// Gcmove demonstrates the lazy-persistency pattern the paper highlights
// in §VI-D1: a compacting move (as performed by incremental generational
// garbage collectors, multi-version structures, and resizing) protected
// by a durable transaction that LAZILY persists the copies — the moved
// data stays in the cache past commit and the hardware guarantees it
// reaches PM before anything it depends on is overwritten.
//
// The program scatters records, compacts them into a fresh region with
// lazy+log-free copies, and shows:
//
//  1. the copies are NOT durable right after commit (deferred);
//  2. a store into the transaction's working set forces them durable
//     before it proceeds (the signature check of §III-C3);
//  3. a crash while the copies are still volatile recovers by
//     re-executing the move from the intact sources.
//
// Run:
//
//	go run ./examples/gcmove
package main

import (
	"fmt"
	"log"

	"github.com/persistmem/slpmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/recovery"
)

const (
	recWords = 8 // 64-byte records
	recBytes = recWords * 8
	count    = 16
)

// Root slots: 0 = live region, 1 = record count, 3 = move source
// (the recovery-protocol slot), 4 = source count.
const (
	slotRegion = 0
	slotCount  = 1
	slotSrc    = 3
	slotSrcCnt = 4
)

func buildScattered(sys *slpmt.System) slpmt.Addr {
	var region slpmt.Addr
	if err := sys.Update(func(tx *slpmt.Tx) error {
		// Records with gaps between them (fragmentation).
		region = tx.Alloc(count * recBytes * 2)
		for i := 0; i < count; i++ {
			rec := region + slpmt.Addr(i*2*recBytes)
			for w := 0; w < recWords; w++ {
				tx.StoreTU64(rec+slpmt.Addr(w*8), uint64(i*100+w), slpmt.LogFree)
			}
		}
		tx.SetRoot(slotRegion, uint64(region))
		tx.SetRoot(slotCount, count)
		tx.SetRoot(slotSrc, 0)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	return region
}

// compact moves every record into a dense fresh region with lazy
// copies, publishing the old region for crash recovery.
func compact(sys *slpmt.System, old slpmt.Addr) (dst slpmt.Addr) {
	if err := sys.Update(func(tx *slpmt.Tx) error {
		dst = tx.Alloc(count * recBytes)
		for i := 0; i < count; i++ {
			src := old + slpmt.Addr(i*2*recBytes)
			// Move without modifying the source: lazy + log-free.
			tx.Copy(dst+slpmt.Addr(i*recBytes), src, recBytes, slpmt.LazyLogFree)
		}
		tx.SetRoot(slotRegion, uint64(dst))
		tx.SetRoot(slotSrc, uint64(old)) // recovery pointer (logged)
		tx.SetRoot(slotSrcCnt, count)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	return dst
}

// recoverMove re-executes an interrupted/unflushed move from the intact
// source region (the application recovery for the lazy copies).
func recoverMove(img *pmem.Image) bool {
	layout := mem.DefaultLayout(img.Size())
	root := func(s int) uint64 { return img.ReadU64(layout.RootBase + mem.Addr(s*8)) }
	src := mem.Addr(root(slotSrc))
	if src == 0 {
		return false
	}
	dst := mem.Addr(root(slotRegion))
	n := int(root(slotSrcCnt))
	buf := make([]byte, recBytes)
	for i := 0; i < n; i++ {
		img.Read(src+mem.Addr(i*2*recBytes), buf)
		img.Write(dst+mem.Addr(i*recBytes), buf)
	}
	img.WriteU64(layout.RootBase+mem.Addr(slotSrc*8), 0)
	return true
}

func verify(img *pmem.Image, dst mem.Addr) error {
	for i := 0; i < count; i++ {
		for w := 0; w < recWords; w++ {
			got := img.ReadU64(dst + mem.Addr(i*recBytes+w*8))
			if got != uint64(i*100+w) {
				return fmt.Errorf("record %d word %d = %d", i, w, got)
			}
		}
	}
	return nil
}

func main() {
	sys := slpmt.New(slpmt.Options{Scheme: "SLPMT"})
	old := buildScattered(sys)
	dst := compact(sys, old)

	// 1. Deferred: right after commit the copies are volatile.
	img := sys.Mach.Crash()
	if err := verify(img, mem.Addr(dst)); err != nil {
		fmt.Println("right after commit, copies not yet durable:", err)
	}
	fmt.Printf("deferred lines after compaction: %d\n", sys.Eng.RetainedLazyLines())

	// 2. Crash now: recovery re-executes the move from the old region.
	crashImg := sys.Mach.Crash()
	if _, err := recovery.ApplyLog(crashImg); err != nil {
		log.Fatal(err)
	}
	if !recoverMove(crashImg) {
		log.Fatal("recovery pointer missing")
	}
	if err := verify(crashImg, mem.Addr(dst)); err != nil {
		log.Fatal("recovery failed: ", err)
	}
	fmt.Println("crash before flush: move re-executed from intact sources, data verified")

	// 3. Conflict: touching the old region (freeing it) forces the lazy
	// copies durable first — the hardware's signature check.
	if err := sys.Update(func(tx *slpmt.Tx) error {
		tx.SetRoot(slotSrc, 0) // store into the move txn's working set
		tx.Free(old)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	img2 := sys.Mach.Crash()
	if err := verify(img2, mem.Addr(dst)); err != nil {
		log.Fatal("copies not durable after working-set conflict: ", err)
	}
	c := sys.Stats()
	fmt.Printf("after the conflicting store: copies durable (signature hits: %d, lazy lines persisted: %d)\n",
		c.SignatureHits, c.LazyLinePersists)
	fmt.Printf("log records for the whole compaction: %d (all moves were log-free)\n", c.LogRecordsCreated)
}
