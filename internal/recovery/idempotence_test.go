package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/workloads"
	_ "github.com/persistmem/slpmt/internal/workloads/all"
)

// sameImage compares two images page by page and returns the first
// differing address.
func sameImage(a, b *pmem.Image) (uint64, bool) {
	if a.Size() != b.Size() {
		return 0, false
	}
	pa, pb := make([]byte, pmem.PageSize), make([]byte, pmem.PageSize)
	for off := uint64(0); off < a.Size(); off += pmem.PageSize {
		n := min(pmem.PageSize, a.Size()-off)
		a.Read(off, pa[:n])
		b.Read(off, pb[:n])
		if !bytes.Equal(pa[:n], pb[:n]) {
			for i := range pa[:n] {
				if pa[i] != pb[i] {
					return off + uint64(i), false
				}
			}
		}
	}
	return 0, true
}

// TestRecoveryIdempotent: recovery may itself be interrupted by a
// crash and rerun, so recovering an already-recovered image must change
// nothing. At every persist event of campaign configurations (undo and
// redo logging, W ∈ {1,4}, 1–2 cores, 1–2 sockets), RecoverSharded on
// a clone of the recovered crash image must reproduce the recovered
// bytes, the report, and the rebuilt heap exactly. The clones share pages
// copy-on-write, so each point costs only the pages recovery touches.
func TestRecoveryIdempotent(t *testing.T) {
	type shape struct{ cores, sockets, window int }
	var shapes []shape
	for _, cs := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
		for _, w := range []int{1, 4} {
			shapes = append(shapes, shape{cs[0], cs[1], w})
		}
	}
	for _, scheme := range []string{"SLPMT", "SLPMT-redo"} {
		for _, sh := range shapes {
			cfg := CampaignConfig{
				Workload: "hashtable", Scheme: scheme, N: 24, ValueSize: 32, Seed: 3,
				Cores: sh.cores, Sockets: sh.sockets, CommitWindow: sh.window,
			}
			t.Run(fmt.Sprintf("%s/%dc-%ds-w%d", scheme, sh.cores, sh.sockets, sh.window), func(t *testing.T) {
				t.Parallel()
				checkIdempotent(t, cfg)
			})
		}
	}
}

func checkIdempotent(t *testing.T, cfg CampaignConfig) {
	ref, err := execute(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	tested, applied := 0, 0
	for p := ref.setup + 1; p <= ref.total; p++ {
		info, err := execute(cfg, p)
		if err != nil {
			t.Fatalf("point %d: %v", p, err)
		}
		if !info.crashed {
			continue
		}
		once := info.img
		rep1, heaps1, err := RecoverSharded(once, workloads.MustNew(cfg.Workload).(workloads.Recoverable), cfg.Cores, cfg.Sockets)
		if err != nil {
			t.Fatalf("point %d: first recovery: %v", p, err)
		}
		twice := once.Clone()
		rep2, heaps2, err := RecoverSharded(twice, workloads.MustNew(cfg.Workload).(workloads.Recoverable), cfg.Cores, cfg.Sockets)
		if err != nil {
			t.Fatalf("point %d: second recovery: %v", p, err)
		}
		if at, ok := sameImage(once, twice); !ok {
			t.Fatalf("point %d: recovering twice changed byte %#x", p, at)
		}
		if *rep1 != *rep2 {
			t.Fatalf("point %d: reports differ:\n  once:  %+v\n  twice: %+v", p, *rep1, *rep2)
		}
		if !reflect.DeepEqual(heaps1, heaps2) {
			t.Fatalf("point %d: rebuilt heaps differ", p)
		}
		tested++
		applied += rep1.RecordsApplied
	}
	if tested == 0 || applied == 0 {
		t.Fatalf("%d crash points tested, %d log records applied: the sweep exercised no log recovery", tested, applied)
	}
}

// TestLogBoundPastAreaIsCorrupt: recovery copies only the log prefix a
// header bounds, so a header whose watermark or committed boundary
// points past the log area must still be rejected as corrupt, on the
// per-transaction and the epoch-stream paths alike.
func TestLogBoundPastAreaIsCorrupt(t *testing.T) {
	layout := mem.DefaultLayout(pmem.DefaultSize)
	past := layout.LogSize + 8
	for _, h := range []logfmt.Header{
		{State: logfmt.StateActive, Mode: logfmt.ModeUndo, Watermark: past},
		{State: logfmt.StateCommitted, Mode: logfmt.ModeRedo, Watermark: past},
		{Mode: logfmt.ModeUndo, Epoch: 1, CommittedTo: logfmt.RecordsStart, Watermark: past},
		{Mode: logfmt.ModeRedo, Epoch: 1, CommittedTo: past, Watermark: past},
	} {
		h.Magic, h.Seq = logfmt.Magic, 1
		img := pmem.NewImage(pmem.DefaultSize)
		line := logfmt.EncodeHeader(h)
		img.Write(layout.LogBase, line[:])
		if _, err := ApplyLog(img); !errors.Is(err, logfmt.ErrCorrupt) {
			t.Errorf("header %+v: err = %v, want logfmt.ErrCorrupt", h, err)
		}
	}
}
