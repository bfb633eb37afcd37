package pmem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// snapshot is a crash image under test with its flat reference model.
type snapshot struct {
	img *Image
	ref []byte
}

// checkImage compares an image against its flat reference, page by page.
func checkImage(t *testing.T, what string, img *Image, ref []byte) {
	t.Helper()
	got := make([]byte, PageSize)
	for off := uint64(0); off < uint64(len(ref)); off += PageSize {
		n := min(PageSize, uint64(len(ref))-off)
		img.Read(off, got[:n])
		if !bytes.Equal(got[:n], ref[off:off+n]) {
			for i := range got[:n] {
				if got[i] != ref[off+uint64(i)] {
					t.Fatalf("%s: byte %#x = %#x, reference %#x", what, off+uint64(i), got[i], ref[off+uint64(i)])
				}
			}
		}
	}
}

// TestImageMatchesFlatReference drives a device through random
// persists on all three paths (line-aligned and page-crossing), reads,
// crashes, and writes to the crash images and to clones of them, and
// checks every image against a flat []byte model. Each snapshot has its
// own model, so the check covers isolation in both directions: a later
// persist never shows in an earlier snapshot, and a write to a snapshot
// never reaches the device or another snapshot.
func TestImageMatchesFlatReference(t *testing.T) {
	const size = 16*PageSize + 192 // the last page is partial
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := New(Config{Size: size})
		dev := make([]byte, size)
		var snaps []snapshot
		now := uint64(0)

		// span picks a write: a line-aligned line, or a run of up to
		// 512 B placed to cross a page boundary when it fits.
		span := func() (uint64, []byte) {
			var addr uint64
			var n int
			if rng.Intn(2) == 0 {
				n = 64
				addr = uint64(rng.Intn(size/64)) * 64
			} else {
				n = 1 + rng.Intn(512)
				pg := uint64(1 + rng.Intn(size/PageSize-1))
				addr = pg*PageSize - uint64(rng.Intn(n))
			}
			p := make([]byte, n)
			rng.Read(p)
			return addr, p
		}

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				addr, p := span()
				switch rng.Intn(3) {
				case 0:
					now += d.Persist(now, addr, p)
				case 1:
					now += d.PersistStream(now, addr, p)
				default:
					now += d.PersistAsync(now, addr, p)
				}
				copy(dev[addr:], p)
			case op == 5:
				addr := uint64(rng.Intn(size - 600))
				got := make([]byte, 1+rng.Intn(600))
				d.Read(addr, got)
				if !bytes.Equal(got, dev[addr:addr+uint64(len(got))]) {
					t.Fatalf("seed %d step %d: device read at %#x differs from the reference", seed, step, addr)
				}
				if w := uint64(rng.Intn(size - 8)); d.ReadU64(w) != binary.LittleEndian.Uint64(dev[w:]) {
					t.Fatalf("seed %d step %d: device word at %#x differs from the reference", seed, step, w)
				}
			case op == 6:
				snaps = append(snaps, snapshot{d.Crash(), bytes.Clone(dev)})
			case op == 7 && len(snaps) > 0:
				s := snaps[rng.Intn(len(snaps))]
				snaps = append(snaps, snapshot{s.img.Clone(), bytes.Clone(s.ref)})
			case len(snaps) > 0:
				s := snaps[rng.Intn(len(snaps))]
				if rng.Intn(2) == 0 {
					addr, p := span()
					s.img.Write(addr, p)
					copy(s.ref[addr:], p)
				} else {
					addr := uint64(rng.Intn(size - 8))
					v := rng.Uint64()
					s.img.WriteU64(addr, v)
					for i := 0; i < 8; i++ {
						s.ref[addr+uint64(i)] = byte(v >> (8 * i))
					}
				}
			}
		}
		checkImage(t, "device", d.durable, dev)
		for _, s := range snaps {
			checkImage(t, "snapshot", s.img, s.ref)
		}
	}
}

// TestPersistNoAllocOnExistingPage: once a page exists and the device
// owns it, no persist path allocates, page-crossing writes included.
// Only the first write to a page (or the first after a crash shared it)
// allocates, inside Image.own.
func TestPersistNoAllocOnExistingPage(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	p := make([]byte, 256)
	addr := uint64(PageSize - 128) // crosses from page 0 into page 1
	now := uint64(0)
	for i := 0; i < 64; i++ {
		now += d.Persist(now, addr, p)
		now += d.PersistStream(now, addr, p)
		now += d.PersistAsync(now, addr, p)
	}
	for _, c := range []struct {
		name    string
		persist func(uint64, uint64, []byte) uint64
	}{{"Persist", d.Persist}, {"PersistStream", d.PersistStream}, {"PersistAsync", d.PersistAsync}} {
		if n := testing.AllocsPerRun(1000, func() { now += c.persist(now, addr, p) }); n != 0 {
			t.Errorf("%s on an owned page allocates %.1f times per call", c.name, n)
		}
	}
}
