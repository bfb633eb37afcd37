package engine

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/persistmem/slpmt/internal/isa"
	"github.com/persistmem/slpmt/internal/logfmt"
	"github.com/persistmem/slpmt/internal/machine"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
)

// refModel is the engine's correctness oracle: a flat byte array with
// transactional undo semantics. Logged stores are revertible; log-free
// stores are not (their post-crash value is unspecified mid-transaction,
// so the model tracks them as "wild" until commit).
type refModel struct {
	committed []byte            // state as of the last commit
	current   []byte            // state including the open transaction
	wild      map[mem.Addr]bool // log-free bytes written by the open txn
	inTx      bool
}

func newRef(size int) *refModel {
	return &refModel{
		committed: make([]byte, size),
		current:   make([]byte, size),
		wild:      map[mem.Addr]bool{},
	}
}

func (r *refModel) begin() { r.inTx = true }

func (r *refModel) store(addr mem.Addr, data []byte, logged bool) {
	copy(r.current[addr:], data)
	if !logged {
		for i := range data {
			r.wild[addr+mem.Addr(i)] = true
		}
	}
}

func (r *refModel) commit() {
	copy(r.committed, r.current)
	r.wild = map[mem.Addr]bool{}
	r.inTx = false
}

// randomProgram drives the engine and the reference model in lockstep,
// optionally crashing at a given persist event; it returns the machine
// (for its durable image), the model, and whether the crash fired.
func randomProgram(seed int64, cfg Config, crashAt uint64) (m *machine.Core, ref *refModel, crashed bool) {
	rng := rand.New(rand.NewSource(seed))
	m = machine.New(machine.Config{}).Core(0)
	e := New(m, cfg)
	m.Machine().CrashAfterTotal = crashAt

	const span = 64 * mem.LineSize // working region
	base := m.Layout.HeapBase
	ref = newRef(int(base) + span)

	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(machine.CrashSignal); !ok {
				panic(r)
			}
			crashed = true
		}
	}()

	for txn := 0; txn < 12; txn++ {
		e.Begin()
		ref.begin()
		ops := rng.Intn(24) + 1
		for i := 0; i < ops; i++ {
			addr := base + mem.Addr(rng.Intn(span/8)*8)
			switch rng.Intn(10) {
			case 0, 1: // load
				e.LoadU64(addr)
			case 2: // log-free store
				v := rng.Uint64()
				e.StoreU64(addr, v, isa.StoreT, isa.LogFree)
				ref.store(addr, u64le(v), !cfgHonors(cfg))
			case 3: // multi-word logged store, possibly unaligned
				n := (rng.Intn(4) + 1) * 8
				data := make([]byte, n)
				rng.Read(data)
				e.Store(addr, data, isa.Store, isa.Plain)
				ref.store(addr, data, true)
			default: // plain logged word store
				v := rng.Uint64()
				e.StoreU64(addr, v, isa.Store, isa.Plain)
				ref.store(addr, u64le(v), true)
			}
		}
		e.Commit()
		ref.commit()
	}
	e.DrainLazy()
	return m, ref, false
}

func cfgHonors(cfg Config) bool { return cfg.Caps.HonorLogFree }

func u64le(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
	return b
}

// TestPropertyVolatileMatchesModel: without crashes, the engine's
// volatile view and (after a drain) the durable image both equal the
// reference model, for every scheme-relevant configuration.
func TestPropertyVolatileMatchesModel(t *testing.T) {
	cfgs := []Config{slpmtCfg(), fgCfg()}
	lineCfg := slpmtCfg()
	lineCfg.Granularity = Line
	directCfg := fgCfg()
	directCfg.Buffer = BufferDirect
	specCfg := slpmtCfg()
	specCfg.Speculative = true
	cfgs = append(cfgs, lineCfg, directCfg, specCfg)

	for seed := int64(1); seed <= 8; seed++ {
		for _, cfg := range cfgs {
			m, ref, crashed := randomProgram(seed, cfg, 0)
			if crashed {
				t.Fatal("unexpected crash")
			}
			base := m.Layout.HeapBase
			span := 64 * mem.LineSize
			vol := make([]byte, span)
			m.ReadMem(base, vol)
			if !bytes.Equal(vol, ref.current[base:int(base)+span]) {
				t.Fatalf("seed %d cfg %s: volatile state diverged from model", seed, cfg.String())
			}
			dur := make([]byte, span)
			m.PM.Read(base, dur)
			if !bytes.Equal(dur, ref.committed[base:int(base)+span]) {
				t.Fatalf("seed %d cfg %s: durable state diverged from model", seed, cfg.String())
			}
		}
	}
}

// TestPropertyCrashRecovery: at every sampled crash point of a random
// program, applying the hardware undo log to the crash image restores
// every LOGGED byte to the last committed state; log-free bytes may
// hold either the committed or the in-flight value (the application
// contract), and nothing else.
func TestPropertyCrashRecovery(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		// Reference run to learn the event count.
		mRef, _, _ := randomProgram(seed, slpmtCfg(), 0)
		total := mRef.Machine().PersistTotal
		for point := uint64(3); point <= total; point += 13 {
			m, ref, crashed := randomProgram(seed, slpmtCfg(), point)
			if !crashed {
				continue
			}
			img := m.Crash()
			// If the crash fell between the in-flight transaction's
			// commit record and its return, that transaction is durable:
			// the model's current state is the expected image.
			layout := mem.DefaultLayout(img.Size())
			var line [logfmt.RecordsStart]byte
			img.Read(layout.LogBase, line[:])
			hdr := logfmt.DecodeHeader(line[:])
			inFlightCommitted := hdr.State == logfmt.StateCommitted && ref.inTx

			if _, err := applyForTest(img); err != nil {
				t.Fatalf("seed %d point %d: %v", seed, point, err)
			}
			base := m.Layout.HeapBase
			span := 64 * mem.LineSize
			heap := make([]byte, span)
			img.Read(base, heap)
			for off := 0; off < span; off++ {
				a := base + mem.Addr(off)
				got := heap[off]
				want := ref.committed[a]
				if inFlightCommitted {
					want = ref.current[a]
				}
				if got == want {
					continue
				}
				// Divergence is only permitted for in-flight log-free
				// bytes (the application's recovery contract) — and
				// then only to the in-flight value.
				if ref.wild[a] && got == ref.current[a] {
					continue
				}
				t.Fatalf("seed %d point %d: byte %#x = %#x, committed %#x (wild=%v, inflight=%#x)",
					seed, point, a, got, want, ref.wild[a], ref.current[a])
			}
		}
	}
}

// applyForTest applies the undo log of an ACTIVE transaction in the
// image (a local copy of the recovery package's phase 1, kept here to
// avoid an import cycle in tests).
func applyForTest(img *pmem.Image) (int, error) {
	layout := mem.DefaultLayout(img.Size())
	raw := make([]byte, layout.LogSize)
	img.Read(layout.LogBase, raw)
	hdr := logfmt.DecodeHeader(raw)
	if hdr.Magic != logfmt.Magic || hdr.State != logfmt.StateActive || hdr.Mode != logfmt.ModeUndo {
		return 0, nil
	}
	recs, err := logfmt.ParseRecords(raw, hdr.Seq)
	if err != nil {
		return 0, err
	}
	for i := len(recs) - 1; i >= 0; i-- {
		img.Write(recs[i].Addr, recs[i].Data)
	}
	return len(recs), nil
}
