package pmem

import (
	"bytes"
	"testing"
)

func line(b byte) []byte {
	p := make([]byte, 64)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestDurableAtEnqueue(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	d.Persist(0, 128, line(0xAB))
	got := make([]byte, 64)
	d.Read(128, got)
	if !bytes.Equal(got, line(0xAB)) {
		t.Error("data not durable immediately after Persist")
	}
	img := d.Crash()
	if img.ReadU64(128) != 0xABABABABABABABAB {
		t.Error("crash image missing persisted data")
	}
}

func TestPersistStallComponents(t *testing.T) {
	cfg := Config{Size: 1 << 20, WPQBytes: 128, EnqueueCycles: 8,
		WriteCycles: 1000, AckCycles: 100, Banks: 1}
	d := New(cfg)
	// Synchronous persists wait for enqueue + the entry's medium
	// completion + the acknowledgement round trip.
	s1 := d.Persist(0, 0, line(1))
	if s1 != 8+1000+100 {
		t.Errorf("first persist stall = %d, want 1108", s1)
	}
	// After the wait the queue has drained; the next persist pays the
	// same full service time, not more.
	s2 := d.Persist(s1, 64, line(2))
	if s2 != 1108 {
		t.Errorf("second persist stall = %d, want 1108", s2)
	}
}

func TestBankedDrainParallelism(t *testing.T) {
	// A streamed burst (issued back-to-back, no per-entry completion
	// wait) drains Banks-wide: the completion time of 8 entries shrinks
	// with more banks. Synchronous persists serialize by construction,
	// so bank parallelism is only visible on streamed/posted bursts.
	mk := func(banks int) uint64 {
		d := New(Config{Size: 1 << 20, WPQBytes: 64 * 16, Banks: banks,
			EnqueueCycles: 8, WriteCycles: 1000, AckCycles: 1})
		now := uint64(0)
		for i := 0; i < 8; i++ {
			now += d.PersistStream(now, uint64(i*64), line(byte(i)))
		}
		return d.DrainAll(now)
	}
	serial := mk(1)
	quad := mk(4)
	if quad >= serial {
		t.Errorf("banked drain (%d) not faster than serial (%d)", quad, serial)
	}
	if serial < 8*1000 {
		t.Errorf("serial drain of 8 entries finished in %d cycles (< 8 writes)", serial)
	}
}

func TestPersistAsyncDoesNotStall(t *testing.T) {
	d := New(Config{Size: 1 << 20, WPQBytes: 128, EnqueueCycles: 8,
		WriteCycles: 1000, AckCycles: 100, Banks: 1})
	// Fill well past WPQ capacity asynchronously: stall stays at the
	// enqueue latency every time.
	for i := 0; i < 32; i++ {
		if s := d.PersistAsync(0, uint64(i*64), line(byte(i))); s != 8 {
			t.Fatalf("async persist %d stalled %d cycles", i, s)
		}
	}
	// But the backlog is visible to a subsequent synchronous persist.
	s := d.Persist(0, 4096, line(0xFF))
	if s < 1000 {
		t.Errorf("sync persist after async backlog stalled only %d cycles", s)
	}
}

func TestPersistStreamSkipsAck(t *testing.T) {
	d := New(Config{Size: 1 << 20, EnqueueCycles: 8, WriteCycles: 1000,
		AckCycles: 500, Banks: 2})
	s := d.PersistStream(0, 0, line(1))
	if s != 8 {
		t.Errorf("stream persist stall = %d, want 8", s)
	}
}

func TestPersistBoundsChecks(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	for _, fn := range []func(){
		func() { d.Persist(0, 1<<20-8, line(1)) },
		func() { d.Read(1<<20-8, make([]byte, 64)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected out-of-range panic")
				}
			}()
			fn()
		}()
	}
}

func TestQueueDepthDrains(t *testing.T) {
	d := New(Config{Size: 1 << 20, WPQBytes: 512, WriteCycles: 1000, Banks: 1,
		EnqueueCycles: 8, AckCycles: 1})
	// Posted persists leave entries in flight.
	for i := 0; i < 4; i++ {
		d.PersistAsync(0, uint64(i*64), line(1))
	}
	if d.QueueDepth(10) == 0 {
		t.Error("queue unexpectedly empty right after posted enqueues")
	}
	if got := d.QueueDepth(100000); got != 0 {
		t.Errorf("queue depth after long drain = %d, want 0", got)
	}
}

// TestCrashSnapshotIsolation: a crash image is frozen at the crash.
// The device's later persists do not reach it, and recovery's writes
// to it do not reach the device.
func TestCrashSnapshotIsolation(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	d.Persist(0, 64, line(7))
	img := d.Crash()
	d.Persist(1008, 64, line(9))         // shared page: copied by the device
	d.PersistAsync(2000, 1<<16, line(5)) // page absent at the crash
	if img.ReadU64(64) != 0x0707070707070707 || img.ReadU64(1<<16) != 0 {
		t.Error("a persist after the crash reached the snapshot")
	}
	img.WriteU64(128, 0x1122334455667788) // shared page: copied by the image
	img.Write(1<<17, line(3))             // page absent on both sides
	if d.ReadU64(128) != 0 || d.ReadU64(1<<17) != 0 {
		t.Error("a write to the snapshot reached the device")
	}
	if d.ReadU64(64) != 0x0909090909090909 || d.ReadU64(1<<16) != 0x0505050505050505 {
		t.Error("the device lost a persist made after the crash")
	}
	again := d.Crash()
	if again.ReadU64(64) != 0x0909090909090909 || again.ReadU64(128) != 0 {
		t.Error("a second snapshot does not match the device")
	}
}

func TestImageAccessors(t *testing.T) {
	img := NewImage(3 * PageSize)
	img.WriteU64(8, 0xdeadbeefcafe)
	if img.ReadU64(8) != 0xdeadbeefcafe {
		t.Error("image u64 roundtrip failed")
	}
	img.Write(100, []byte{1, 2, 3})
	buf := make([]byte, 3)
	img.Read(100, buf)
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Error("image byte roundtrip failed")
	}
	// Page-crossing word and slice accesses.
	img.WriteU64(PageSize-3, 0x0102030405060708)
	if got := img.ReadU64(PageSize - 3); got != 0x0102030405060708 {
		t.Errorf("page-crossing u64 = %#x", got)
	}
	long := line(0xEE)
	img.Write(2*PageSize-32, long)
	got := make([]byte, 64)
	img.Read(2*PageSize-32, got)
	if !bytes.Equal(got, long) {
		t.Error("page-crossing byte roundtrip failed")
	}
	for _, f := range []func(){
		func() { img.ReadU64(3*PageSize - 4) },
		func() { img.Write(3*PageSize-1, []byte{1, 2}) },
		func() { img.Read(^uint64(0), buf) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected out-of-range panic")
				}
			}()
			f()
		}()
	}
}

func TestDefaults(t *testing.T) {
	d := New(Config{})
	cfg := d.Config()
	if cfg.Size != DefaultSize || cfg.WPQBytes != DefaultWPQBytes ||
		cfg.WriteCycles != DefaultWriteCycles || cfg.Banks != DefaultBanks {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}
