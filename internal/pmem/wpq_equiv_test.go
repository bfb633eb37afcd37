package pmem

import (
	"math/rand"
	"testing"

	"github.com/persistmem/slpmt/internal/trace"
)

// refWPQ is the WPQ timing model in its direct form: the oldest entry
// sits at index 0, a drain shifts the queue down, and PersistAsync
// finds its start by scanning from the head. The Device keeps a head
// index and scans PersistAsync's start from the tail; the equivalence
// tests below hold the two to identical timing and accounting.
type refWPQ struct {
	cfg                    Config
	queue                  []entry
	used                   int
	lastFinish, lastWaited uint64
	recent                 []uint64
	enqueued, stalled      uint64
	occMax                 int
	occInt, occLast        uint64
	occBase                uint64
	drained                []uint64 // drained addresses, in drain order
}

func (r *refWPQ) occAdvance(t uint64) {
	if t > r.occLast {
		r.occInt += uint64(r.used) * (t - r.occLast)
		r.occLast = t
	}
}

func (r *refWPQ) drainUpTo(now uint64) {
	i := 0
	for i < len(r.queue) && r.queue[i].finish <= now {
		r.occAdvance(r.queue[i].finish)
		r.used -= r.queue[i].bytes
		r.drained = append(r.drained, r.queue[i].addr)
		i++
	}
	r.queue = append(r.queue[:0], r.queue[i:]...)
	r.occAdvance(now)
}

func (r *refWPQ) enqueue(e entry, t uint64) {
	r.occAdvance(t)
	r.queue = append(r.queue, e)
	for i := len(r.queue) - 1; i > 0 && r.queue[i-1].finish > r.queue[i].finish; i-- {
		r.queue[i-1], r.queue[i] = r.queue[i], r.queue[i-1]
	}
	r.used += e.bytes
	r.occMax = max(r.occMax, r.used)
	r.lastFinish = e.finish
	r.enqueued++
}

func (r *refWPQ) bankFinish(t uint64) uint64 {
	start := t
	if len(r.recent) >= r.cfg.Banks {
		start = max(start, r.recent[len(r.recent)-r.cfg.Banks])
	}
	fin := start + r.cfg.WriteCycles
	r.recent = append(r.recent, fin)
	if len(r.recent) > 4*r.cfg.Banks {
		r.recent = append(r.recent[:0], r.recent[len(r.recent)-r.cfg.Banks:]...)
	}
	return fin
}

// persist is Persist (sync) and PersistStream (!sync).
func (r *refWPQ) persist(now, addr uint64, n int, sync bool) uint64 {
	r.lastWaited = 0
	stall := r.cfg.EnqueueCycles
	t := now + stall
	r.drainUpTo(t)
	var waited uint64
	for r.used+n > r.cfg.WPQBytes {
		wait := r.queue[0].finish - t
		stall += wait
		waited += wait
		t = r.queue[0].finish
		r.drainUpTo(t)
	}
	r.lastWaited = waited
	fin := r.bankFinish(t)
	r.enqueue(entry{bytes: n, addr: addr, finish: fin}, t)
	if !sync {
		r.stalled += stall - r.cfg.EnqueueCycles
		return stall
	}
	stall += fin - t
	r.stalled += stall - r.cfg.EnqueueCycles
	return stall + r.cfg.AckCycles
}

func (r *refWPQ) persistAsync(now, addr uint64, n int) uint64 {
	r.lastWaited = 0
	t := now + r.cfg.EnqueueCycles
	r.drainUpTo(t)
	tStart := t
	if r.used+n > r.cfg.WPQBytes {
		freed := 0
		for _, e := range r.queue {
			freed += e.bytes
			tStart = max(tStart, e.finish)
			if r.used+n-freed <= r.cfg.WPQBytes {
				break
			}
		}
	}
	fin := r.bankFinish(tStart)
	r.enqueue(entry{bytes: n, addr: addr, finish: fin}, t)
	return r.cfg.EnqueueCycles
}

func (r *refWPQ) occupancy() (uint64, uint64) {
	var avg uint64
	if span := r.occLast - r.occBase; span > 0 {
		avg = r.occInt / span
	}
	return uint64(r.occMax), avg
}

// TestWPQMatchesReference drives random multi-producer traffic — cores
// at interleaved, out-of-order clocks; async backlogs far beyond the
// WPQ; sync and streamed persists; entries of mixed sizes, some larger
// than the WPQ on the posted path — through the Device and the
// reference, comparing every observable after every call.
func TestWPQMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Size: 1 << 20, Banks: 1 + rng.Intn(3), WPQBytes: 64 * (1 + rng.Intn(8))}.withDefaults()
		d := New(cfg)
		tr := trace.New(1 << 16)
		tr.SetMask(trace.Mask(trace.KWPQDrain))
		d.SetTracer(tr)
		ref := &refWPQ{cfg: cfg}
		clk := make([]uint64, 1+rng.Intn(4))
		sizes := []int{8, 16, 64, 64, 64, 128}
		buf := make([]byte, 2*cfg.WPQBytes)
		for op := 0; op < 3000; op++ {
			c := rng.Intn(len(clk))
			clk[c] += uint64(rng.Intn(700))
			now := clk[c]
			addr := uint64(rng.Intn(1<<13)) * 64
			n := min(sizes[rng.Intn(len(sizes))], cfg.WPQBytes)
			var got, want uint64
			switch k := rng.Intn(10); {
			case k < 6:
				if rng.Intn(50) == 0 {
					n = cfg.WPQBytes + 64 // posted entries may exceed the WPQ
				}
				got, want = d.PersistAsync(now, addr, buf[:n]), ref.persistAsync(now, addr, n)
			case k < 8:
				got, want = d.PersistStream(now, addr, buf[:n]), ref.persist(now, addr, n, false)
			default:
				got, want = d.Persist(now, addr, buf[:n]), ref.persist(now, addr, n, true)
				clk[c] += got
			}
			if got != want || d.LastWaited() != ref.lastWaited || d.LastFinish() != ref.lastFinish {
				t.Fatalf("seed %d op %d: stall/waited/finish = %d/%d/%d, reference %d/%d/%d", seed, op,
					got, d.LastWaited(), d.LastFinish(), want, ref.lastWaited, ref.lastFinish)
			}
			if rng.Intn(20) == 0 {
				probe := clk[rng.Intn(len(clk))]
				ref.drainUpTo(probe)
				if got, want := d.QueueDepth(probe), len(ref.queue); got != want {
					t.Fatalf("seed %d op %d: queue depth %d, reference %d", seed, op, got, want)
				}
			}
			if rng.Intn(500) == 0 {
				probe := clk[rng.Intn(len(clk))]
				d.ResetOccupancy(probe)
				ref.drainUpTo(probe)
				ref.occAdvance(probe)
				ref.occInt, ref.occBase, ref.occMax = 0, ref.occLast, ref.used
			}
			gm, ga := d.OccupancyStats()
			wm, wa := ref.occupancy()
			if gm != wm || ga != wa {
				t.Fatalf("seed %d op %d: occupancy max/avg %d/%d, reference %d/%d", seed, op, gm, ga, wm, wa)
			}
		}
		end := clk[0] + 1<<40
		ref.drainUpTo(end)
		if d.QueueDepth(end) != 0 || len(ref.queue) != 0 {
			t.Fatalf("seed %d: queue not empty at the end", seed)
		}
		ge, gs := d.Stats()
		if ge != ref.enqueued || gs != ref.stalled {
			t.Fatalf("seed %d: stats %d/%d, reference %d/%d", seed, ge, gs, ref.enqueued, ref.stalled)
		}
		evs := tr.Events()
		if len(evs) != len(ref.drained) {
			t.Fatalf("seed %d: %d drains, reference %d", seed, len(evs), len(ref.drained))
		}
		for i, ev := range evs {
			if ev.Addr != ref.drained[i] {
				t.Fatalf("seed %d: drain %d is %#x, reference %#x", seed, i, ev.Addr, ref.drained[i])
			}
		}
	}
}

// TestPersistAsyncBacklogNoAlloc pins PersistAsync's noalloc contract
// on a deep backlog, once the queue's backing array has grown.
func TestPersistAsyncBacklogNoAlloc(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	p := make([]byte, 64)
	for i := 0; i < 4096; i++ {
		d.PersistAsync(0, uint64(i%1024)*64, p)
	}
	d.QueueDepth(1 << 62) // drain; the capacity stays
	if n := testing.AllocsPerRun(1000, func() { d.PersistAsync(0, 0, p) }); n != 0 {
		t.Fatalf("PersistAsync allocates %.1f times per call", n)
	}
}
