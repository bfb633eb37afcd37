// Package recovery implements the post-crash procedure for SLPMT
// transactions and the crash-injection campaign that validates it.
//
// Recovery runs in three phases over the durable image (the ADR crash
// snapshot):
//
//  1. Hardware log application. The log header identifies the in-flight
//     transaction: an ACTIVE undo log is applied in reverse, restoring
//     every logged word to its pre-transaction value (idempotent;
//     speculative records are no-ops). A COMMITTED redo log is replayed
//     forward. Anything else means the crash fell between transactions.
//  2. Application fix-up (§IV): the structure's own recovery repairs
//     log-free and lazily persistent data — rebuilding derivable fields
//     (rbtree parent pointers), re-executing published moves (hashtable
//     rehash, heap growth), and ignoring scribbles in unreachable
//     memory.
//  3. Heap reconstruction: a reachability walk from the roots marks the
//     live blocks; the allocator is rebuilt with everything else free —
//     the garbage collection the paper prescribes for memory leaked by
//     interrupted transactions (Pattern 1 recovery).
package recovery

import (
	"fmt"
	"sort"

	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/txheap"
	"github.com/persistmem/slpmt/internal/workloads"
)

// Report summarizes one recovery run.
type Report struct {
	// LogSeq and LogState describe the hardware log at the crash.
	LogSeq   uint64
	LogState uint64
	// Mode is the logging mode found in the header.
	Mode uint64
	// LogEpoch is the epoch counter found in the header (zero for
	// legacy per-transaction streams).
	LogEpoch uint64
	// RecordsApplied counts log records applied (undo reverted or redo
	// replayed).
	RecordsApplied int
	// Heap is the allocator-reconstruction report.
	Heap txheap.RebuildReport
}

// String implements fmt.Stringer.
func (r *Report) String() string {
	state := "idle"
	switch r.LogState {
	case logfmt.StateActive:
		state = "active"
	case logfmt.StateCommitted:
		state = "committed"
	}
	return fmt.Sprintf("recovery: txn %d %s, %d records applied; heap: %d blocks / %d B live, %d gaps / %d B reclaimed",
		r.LogSeq, state, r.RecordsApplied,
		r.Heap.ReachableBlocks, r.Heap.ReachableBytes,
		r.Heap.ReclaimedGaps, r.Heap.ReclaimedBytes)
}

// ApplyLog performs phase 1 on the image: undo records of an active
// transaction are applied in reverse; redo records of a committed
// transaction are replayed in order.
func ApplyLog(img *pmem.Image) (*Report, error) {
	return applyLogRegion(img, mem.DefaultLayout(img.Size()))
}

// logUnit is one parsed application unit: a whole per-transaction log
// (legacy W=1 streams) or one transaction's slice of an epoch stream,
// cut at its boundary record. Units are ordered across cores by the
// boundary's cluster-global sequence when present, falling back to
// (epoch, header seq) for legacy streams.
type logUnit struct {
	epoch, seq uint64
	gseq       uint64 // boundary record's global sequence
	hasG       bool   // unit was cut at a boundary record
	undo       bool
	recs       []logfmt.Record
}

// less orders units for application: redo units replay forward in
// ascending order, undo units revert in descending order (the caller
// walks the sorted slice backwards).
func (u *logUnit) less(v *logUnit) bool {
	if u.hasG && v.hasG {
		return u.gseq < v.gseq
	}
	if u.epoch != v.epoch {
		return u.epoch < v.epoch
	}
	return u.seq < v.seq
}

// apply writes the unit's records into the image: redo units replay
// forward, undo units revert in reverse record order. Returns the
// record count.
func (u *logUnit) apply(img *pmem.Image) int {
	n := 0
	if u.undo {
		for i := len(u.recs) - 1; i >= 0; i-- {
			if logfmt.IsBoundary(u.recs[i]) {
				continue
			}
			img.Write(u.recs[i].Addr, u.recs[i].Data)
			n++
		}
	} else {
		for _, r := range u.recs {
			if logfmt.IsBoundary(r) {
				continue
			}
			img.Write(r.Addr, r.Data)
			n++
		}
	}
	return n
}

// splitUnits cuts an epoch-stream region into per-transaction units at
// its boundary records. Records ahead of the first boundary (none are
// expected: every grouped transaction opens with one) fall into a
// legacy-keyed unit so they are still applied.
func splitUnits(recs []logfmt.Record, hdr logfmt.Header, undo bool) []*logUnit {
	var units []*logUnit
	var cur *logUnit
	for _, r := range recs {
		if logfmt.IsBoundary(r) {
			cur = &logUnit{epoch: hdr.Epoch, undo: undo, gseq: logfmt.BoundarySeq(r), hasG: true}
			units = append(units, cur)
			continue
		}
		if cur == nil {
			cur = &logUnit{epoch: hdr.Epoch, seq: hdr.Seq, undo: undo}
			units = append(units, cur)
		}
		cur.recs = append(cur.recs, r)
	}
	return units
}

// parseLogRegion decodes one core's hardware log, addressed by its
// layout, into application units (empty when the log demands no
// action). ent is the core's group-descriptor entry (the zero value
// for solo machines, whose descriptor line was never written).
//
// A header with CommittedTo at or beyond the record area marks an
// epoch (group-commit) stream. The stream's committed boundary B is
// the larger of the header's CommittedTo and — when the descriptor
// entry carries the header's epoch — the descriptor boundary: grouped
// closes persist the descriptor FIRST and catch the header up after,
// so a crash between the two leaves the header a close behind. The
// committed region [RecordsStart, B) holds whole closed epochs, the
// open region [B, Watermark) the in-flight suffix. Undo streams
// revert the open suffix (the committed region's data persisted
// before its commit point and needs no replay); redo streams replay
// the committed region — a forced close may leave logged lines
// volatile when they are shared with a still-running transaction,
// relying on exactly this replay. Either way an epoch is recovered
// wholesale or not at all, and regions are cut into per-transaction
// units at their boundary records so cross-core application can run
// in exact global order.
//
// CommittedTo of zero is a legacy per-transaction stream and keeps the
// original semantics: reverse an ACTIVE undo log, replay a COMMITTED
// redo log.
func parseLogRegion(img *pmem.Image, layout mem.Layout, ent logfmt.GroupEntry) (*Report, []*logUnit, error) {
	var line [logfmt.RecordsStart]byte
	img.Read(layout.LogBase, line[:])
	hdr := logfmt.DecodeHeader(line[:])
	rep := &Report{LogSeq: hdr.Seq, LogState: hdr.State, Mode: hdr.Mode, LogEpoch: hdr.Epoch}
	if hdr.Magic != logfmt.Magic {
		// Never initialized: fresh image, nothing to do.
		return rep, nil, nil
	}
	// readLog copies the header line plus the record prefix up to end,
	// not the whole region.
	readLog := func(end uint64) []byte { return logfmt.ReadPrefix(img, layout.LogBase, layout.LogSize, end) }
	if hdr.CommittedTo >= logfmt.RecordsStart {
		boundary := hdr.CommittedTo
		if uint64(ent.Epoch) == hdr.Epoch && uint64(ent.Boundary) > boundary {
			boundary = uint64(ent.Boundary)
		}
		switch hdr.Mode {
		case logfmt.ModeUndo:
			if hdr.Watermark > boundary {
				recs, err := logfmt.ParseRegion(readLog(hdr.Watermark), boundary, hdr.Watermark)
				if err != nil {
					return rep, nil, fmt.Errorf("recovery: %w", err)
				}
				return rep, splitUnits(recs, hdr, true), nil
			}
		case logfmt.ModeRedo:
			if boundary > logfmt.RecordsStart {
				recs, err := logfmt.ParseRegion(readLog(boundary), logfmt.RecordsStart, boundary)
				if err != nil {
					return rep, nil, fmt.Errorf("recovery: %w", err)
				}
				return rep, splitUnits(recs, hdr, false), nil
			}
		}
		return rep, nil, nil
	}
	switch {
	case hdr.State == logfmt.StateActive && hdr.Mode == logfmt.ModeUndo:
		recs, err := logfmt.ParseRecords(readLog(hdr.Watermark), hdr.Seq)
		if err != nil {
			return rep, nil, fmt.Errorf("recovery: %w", err)
		}
		return rep, []*logUnit{{seq: hdr.Seq, undo: true, recs: recs}}, nil
	case hdr.State == logfmt.StateCommitted && hdr.Mode == logfmt.ModeRedo:
		recs, err := logfmt.ParseRecords(readLog(hdr.Watermark), hdr.Seq)
		if err != nil {
			return rep, nil, fmt.Errorf("recovery: %w", err)
		}
		return rep, []*logUnit{{seq: hdr.Seq, recs: recs}}, nil
	}
	return rep, nil, nil
}

// groupDesc reads the group-commit descriptor line from the image.
func groupDesc(img *pmem.Image, layout mem.Layout) [logfmt.MaxGroupCores]logfmt.GroupEntry {
	var line [mem.LineSize]byte
	img.Read(layout.GroupDesc(), line[:])
	return logfmt.DecodeGroupDesc(line[:])
}

// applyLogRegion applies one core's hardware log, addressed by its
// layout, to the image.
func applyLogRegion(img *pmem.Image, layout mem.Layout) (*Report, error) {
	desc := groupDesc(img, layout)
	rep, units, err := parseLogRegion(img, layout, desc[0])
	if err != nil {
		return rep, err
	}
	rep.RecordsApplied = applyUnits(img, units)
	return rep, nil
}

// applyUnits applies units sorted in application order (see
// logUnit.less) to the image: redo units replay forward, then undo
// units revert youngest-first. Returns the record count.
func applyUnits(img *pmem.Image, units []*logUnit) int {
	n := 0
	for _, u := range units {
		if !u.undo {
			n += u.apply(img)
		}
	}
	for i := len(units) - 1; i >= 0; i-- {
		if units[i].undo {
			n += units[i].apply(img)
		}
	}
	return n
}

// RecoverSharded runs the full three-phase recovery for a workload's
// structure over an image taken from a machine with the given core and
// socket counts, returning the report and the reconstructed allocator.
//
// Every core's private hardware log is parsed against the shared group
// descriptor, the resulting per-transaction units are merged by their
// boundary records' cluster-global sequence (legacy streams fall back
// to (epoch, header seq)), and applied — redo units replay forward in
// global commit order, undo units revert in reverse global commit
// order. The global order matters: inside a commit window,
// transactions on different cores interleave writes to shared lines,
// and only applying their records in exact global order restores every
// word to its last group-committed value. The report carries core 0's
// header fields and the record total across all logs.
//
// The heap is rebuilt over the machine's address map (a multi-core
// heap region is smaller than the single-core one). On a multi-socket
// machine it is rebuilt as the per-core arena handles of the sharded
// layout, each arena reconciling its own reachable extents with the
// durable prefix. Returns one heap handle per core (all sharing the
// rebuilt spans); with sockets <= 1 the single classic heap is returned
// in every slot.
func RecoverSharded(img *pmem.Image, w workloads.Recoverable, cores, sockets int) (*Report, []*txheap.Heap, error) {
	if cores < 1 {
		cores = 1
	}
	layouts := mem.MultiLayoutSockets(img.Size(), cores, sockets)
	desc := groupDesc(img, layouts[0])
	var rep *Report
	var units []*logUnit
	for i, layout := range layouts {
		var ent logfmt.GroupEntry
		if i < logfmt.MaxGroupCores {
			ent = desc[i]
		}
		r, us, err := parseLogRegion(img, layout, ent)
		if err != nil {
			return r, nil, fmt.Errorf("recovery: core %d log: %w", i, err)
		}
		if rep == nil {
			rep = r
		}
		units = append(units, us...)
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].less(units[j]) })
	rep.RecordsApplied = applyUnits(img, units)
	if err := w.Recover(img); err != nil {
		return rep, nil, fmt.Errorf("recovery: structure fix-up: %w", err)
	}
	reach, err := w.Reach(img)
	if err != nil {
		return rep, nil, fmt.Errorf("recovery: reachability: %w", err)
	}
	heaps := make([]*txheap.Heap, cores)
	if sockets > 1 {
		heaps = txheap.NewSharded(make([]txheap.Ticker, cores), layouts, 0)
		rep.Heap = txheap.RebuildSharded(heaps, reach)
	} else {
		heap := txheap.New(nil, layouts[0], 0)
		rep.Heap = heap.Rebuild(reach)
		for i := range heaps {
			heaps[i] = heap
		}
	}
	return rep, heaps, nil
}
