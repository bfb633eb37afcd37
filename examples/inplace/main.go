// Inplace demonstrates the §V-A optimization the paper derives from
// combining selective logging with lazy persistency: eliminating the
// random persistent-memory writes of in-place update transactions.
//
// Conventional undo transactions persist every updated (random) cache
// line at commit — slow random writes on the critical path. The
// optimized transaction instead:
//
//   - updates the data in place with LAZY but LOGGED storeT (the undo
//     record protects against a crash during the transaction; the
//     random-address data line stays in the cache past commit);
//   - appends the new value to a SEQUENTIAL array with eager log-free
//     storeT (fast sequential writes are all the commit persists).
//
// On a crash during the transaction, the undo log reverts the lazy
// updates. On a crash after commit, the sequential records act as a
// redo log: recovery reapplies them to rebuild the lazily-lost data —
// with no address indirection, unlike conventional redo logging.
//
// Run:
//
//	go run ./examples/inplace
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
	records = 512
	updates = 400
	// batch is the number of in-place updates per durable transaction;
	// the optimization targets transactions that scatter many random
	// writes (§V-A).
	batch = 16
)

// Root slots: 0 = data array, 1 = sequential redo array, 2 = redo count.
const (
	slotData = 0
	slotSeq  = 1
	slotCnt  = 2
)

// seqEntry: {dataIndex, newValue} appended per update.
const seqEntrySize = 16

func setup(sys *slpmt.System) (data, seq slpmt.Addr) {
	if err := sys.Update(func(tx *slpmt.Tx) error {
		data = tx.Alloc(records * 8)
		seq = tx.Alloc(updates * seqEntrySize)
		zero := make([]byte, records*8)
		tx.StoreT(data, zero, slpmt.LogFree)
		tx.SetRoot(slotData, uint64(data))
		tx.SetRoot(slotSeq, uint64(seq))
		tx.SetRoot(slotCnt, 0)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	return data, seq
}

// updateConventional is the plain undo transaction: a batch of logged,
// eagerly persisted random writes.
func updateConventional(sys *slpmt.System, data slpmt.Addr, idxs, vals []uint64) {
	if err := sys.Update(func(tx *slpmt.Tx) error {
		for i := range idxs {
			tx.StoreU64(data+slpmt.Addr(idxs[i]*8), vals[i])
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
}

// updateOptimized is the §V-A strategy.
func updateOptimized(sys *slpmt.System, data, seq slpmt.Addr, idxs, vals []uint64) {
	if err := sys.Update(func(tx *slpmt.Tx) error {
		n := tx.Root(slotCnt)
		for i := range idxs {
			// In-place update: logged (crash-during-txn safety) but
			// lazily persistent (no random write at commit).
			tx.StoreTU64(data+slpmt.Addr(idxs[i]*8), vals[i], slpmt.LazyLogged)
			// Sequential record of the new value: eager, log-free.
			e := seq + slpmt.Addr((n+uint64(i))*seqEntrySize)
			tx.StoreTU64(e, idxs[i], slpmt.LogFree)
			tx.StoreTU64(e+8, vals[i], slpmt.LogFree)
		}
		tx.SetRoot(slotCnt, n+uint64(len(idxs)))
		return nil
	}); err != nil {
		log.Fatal(err)
	}
}

// replaySeq is the post-crash recovery: reapply the sequential records
// as a redo log (no address indirection — the records carry the index).
func replaySeq(img *pmem.Image) int {
	layout := mem.DefaultLayout(img.Size())
	root := func(s int) uint64 { return img.ReadU64(layout.RootBase + mem.Addr(s*8)) }
	data := mem.Addr(root(slotData))
	seq := mem.Addr(root(slotSeq))
	n := root(slotCnt)
	for i := uint64(0); i < n; i++ {
		e := seq + mem.Addr(i*seqEntrySize)
		img.WriteU64(data+mem.Addr(img.ReadU64(e)*8), img.ReadU64(e+8))
	}
	return int(n)
}

func run(optimized bool) (cycles uint64, randomWrites uint64, img *pmem.Image, data slpmt.Addr) {
	sys := slpmt.New(slpmt.Options{Scheme: "SLPMT"})
	data, seq := setup(sys)
	start := sys.Cycles()
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < updates; i += batch {
		idxs := make([]uint64, 0, batch)
		vals := make([]uint64, 0, batch)
		seen := map[uint64]bool{}
		for len(idxs) < batch {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			idx := rng % records
			if seen[idx] {
				continue
			}
			seen[idx] = true
			idxs = append(idxs, idx)
			vals = append(vals, rng|1)
		}
		if optimized {
			updateOptimized(sys, data, seq, idxs, vals)
		} else {
			updateConventional(sys, data, idxs, vals)
		}
	}
	cycles = sys.Cycles() - start
	// Crash WITHOUT draining: the optimized variant's data array is
	// largely volatile; the sequential log must rebuild it.
	img = sys.Mach.Crash()
	return cycles, sys.Stats().EagerLinePersists, img, data
}

func main() {
	convCycles, convPersists, convImg, convData := run(false)
	optCycles, optPersists, optImg, optData := run(true)

	fmt.Printf("conventional in-place: %7d cycles, %4d eager line persists\n", convCycles, convPersists)
	fmt.Printf("section V-A optimized: %7d cycles, %4d eager line persists (sequential)\n", optCycles, optPersists)
	fmt.Printf("speedup: %.2fx\n\n", float64(convCycles)/float64(optCycles))

	// Recovery check: both images must converge to the same final data
	// after the optimized image replays its sequential redo records.
	if _, err := recovery.ApplyLog(optImg); err != nil {
		log.Fatal(err)
	}
	n := replaySeq(optImg)
	for i := 0; i < records; i++ {
		c := convImg.ReadU64(convData + mem.Addr(i*8))
		o := optImg.ReadU64(optData + mem.Addr(i*8))
		if c != o {
			log.Fatalf("recovery divergence at record %d: %d vs %d", i, c, o)
		}
	}
	fmt.Printf("crash recovery: %d sequential records replayed; optimized image matches conventional\n", n)
}
