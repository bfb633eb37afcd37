// Package machine composes the simulated hardware platform: N cores,
// each with private L1/L2 caches and a logical clock, sharing one L3
// (LLC), one persistent memory device, and one functional (volatile)
// memory image.
//
// Timing model. Each core's logical clock advances by:
//
//   - the hit latency of the deepest level probed on each access
//     (Table III: L1 4, L2 12, L3 40 cycles; PM read 150 ns);
//   - explicit compute costs added by the workload (Tick);
//   - persist stalls: every durable write enters the PM write pending
//     queue, and a full queue stalls the core until space frees. The
//     WPQ is shared: cores arbitrate for it at their own (interleaved)
//     clock values, so one core's write burst backpressures the others;
//   - coherence: a bus request that finds the line in another core's
//     private caches pays a snoop penalty, and dirty remote copies are
//     written back before ownership transfers (MESI-lite).
//
// Functional model. The program's current view of memory lives in one
// volatile pmem.Image (paged and sparse) shared by all cores; caches
// track placement and SLPMT metadata only. The durable image the
// pmem.Devices share is updated exclusively by persist operations
// (explicit line/log persists and dirty L3 writebacks), so a crash
// snapshot (a copy-on-write clone of it) contains exactly the persisted
// bytes.
//
// The machine is policy-free: all transaction semantics (what to log,
// what to persist at commit, lazy tracking) live in the engine layer,
// one engine per core, observing evictions through the per-core
// OnL2Evict and OnL3Writeback hooks and remote stores through the
// machine-level OnRemoteStore hook.
package machine

import (
	"github.com/persistmem/slpmt/internal/cache"
	"github.com/persistmem/slpmt/internal/mem"
	"github.com/persistmem/slpmt/internal/pmem"
	"github.com/persistmem/slpmt/internal/profile"
	"github.com/persistmem/slpmt/internal/stats"
	"github.com/persistmem/slpmt/internal/trace"
)

// Config describes the machine. Zero-valued cache levels get Table III
// defaults.
type Config struct {
	// Cores is the number of simulated cores (0 = 1). Each core gets a
	// private L1/L2 pair; L3 and the PM device are shared.
	Cores      int
	L1, L2, L3 cache.Config
	PM         pmem.Config
	// Sockets is the PM socket count (0 = 1). With more than one socket
	// the PM becomes a pmem.Topology: one device (WPQ, banks, drain
	// clock) per socket behind a distance matrix, the physical address
	// space striped over the sockets (mem.Layout.SocketOf), and each
	// core pinned to home socket ID mod Sockets. Sockets = 1 is
	// cycle-identical to the historical single-device machine.
	Sockets int
	// RemoteEnqueueCycles / RemoteReadCycles override the per-hop
	// interconnect costs of cross-socket persists and demand reads
	// (0 = pmem defaults). Ignored when Sockets < 2.
	RemoteEnqueueCycles uint64
	RemoteReadCycles    uint64
	// CoherenceCycles is the snoop penalty a bus request pays when the
	// line is found in another core's private caches (0 = 40, the LLC
	// latency — a directory-in-LLC lookup plus the remote probe).
	CoherenceCycles uint64
	// Trace, when non-nil, receives cycle-stamped events from every
	// layer of the machine (caches, coherence, WPQ) and from the engines
	// running on its cores. Tracing is observation-only: it never
	// advances a clock or counter, so traced and untraced runs produce
	// bit-identical results.
	Trace *trace.Tracer
	// Profile, when non-nil, receives a cycle-attribution charge for
	// every clock advance on every core (must have at least Cores
	// accumulators; see profile.New). Like tracing it is
	// observation-only: profiled and unprofiled runs produce
	// bit-identical cycles, counters, and non-KCharge trace events.
	Profile *profile.Profile
}

// DefaultConfig returns the paper's evaluation platform (Table III): a
// 2 GHz core with 32 KiB/8-way L1 (4 cycles), 256 KiB/4-way L2 (12
// cycles), 2 MiB/16-way L3 (40 cycles), and an ADR persistent memory
// with a 512 B WPQ, 150 ns reads, and 500 ns writes.
func DefaultConfig() Config {
	return Config{
		L1: cache.Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 4},
		L2: cache.Config{Name: "L2", SizeBytes: 256 << 10, Ways: 4, LatencyCycles: 12},
		L3: cache.Config{Name: "L3", SizeBytes: 2 << 20, Ways: 16, LatencyCycles: 40},
		PM: pmem.Config{},
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.Sockets <= 0 {
		c.Sockets = 1
	}
	if c.L1.SizeBytes == 0 {
		c.L1 = d.L1
	}
	if c.L2.SizeBytes == 0 {
		c.L2 = d.L2
	}
	if c.L3.SizeBytes == 0 {
		c.L3 = d.L3
	}
	if c.CoherenceCycles == 0 {
		c.CoherenceCycles = 40
	}
	if c.PM.Size == 0 && c.Cores > 1 {
		// Extra cores bring their own log region; keep the shared heap
		// the same size as the single-core platform.
		c.PM.Size = pmem.DefaultSize + uint64(c.Cores-1)*mem.LogRegionSize
	}
	return c
}

// Machine is the shared part of the platform: the LLC, the persistent
// memory device, the functional memory image, and the cores themselves.
// Not safe for concurrent use; multi-core execution is simulated by
// deterministically interleaving the cores on one OS thread.
type Machine struct {
	cfg Config
	L3  *cache.Cache
	// PM is socket 0's device. Its durable image is shared by every
	// socket of Topo, so functional reads and crash snapshots through PM
	// are complete regardless of socket count.
	PM *pmem.Device
	// Topo is the PM socket topology (always non-nil; one socket on the
	// historical single-device machine).
	Topo   *pmem.Topology
	Layout mem.Layout // core 0's view; heap/root regions are shared
	cores  []*Core

	vol *pmem.Image // functional program view of the PM address space

	// PersistTotal counts durable-write events machine-wide (across all
	// cores, in interleave order); with CrashAfterTotal != 0 the machine
	// panics with CrashSignal when the total reaches it — the
	// crash-injection mechanism (every distinct durable state lies at a
	// persist-event boundary). PersistTotal starts at 0 and is
	// incremented before the comparison, so CrashAfterTotal = 0 never
	// fires.
	PersistTotal    uint64
	CrashAfterTotal uint64

	// OnRemoteStore is invoked when core src issues a bus write request
	// (read-for-ownership or shared->modified upgrade) for a line. The
	// cluster layer uses it to run the remote engines' lazy-persistency
	// signature checks (§III-C3 across cores): a store that hits a
	// retained transaction's working set forces its lazy drain.
	OnRemoteStore func(src int, line mem.Addr)
}

// CrashSignal is the panic value thrown when an injected crash point is
// reached; crash campaigns recover it and snapshot the durable image.
type CrashSignal struct {
	// At is the persist-event index at which the crash fired.
	At uint64
}

// New builds a machine.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	topo := pmem.NewTopology(pmem.TopoConfig{
		Sockets:             cfg.Sockets,
		Dev:                 cfg.PM,
		RemoteEnqueueCycles: cfg.RemoteEnqueueCycles,
		RemoteReadCycles:    cfg.RemoteReadCycles,
	})
	dev := topo.Dev(0)
	layouts := mem.MultiLayoutSockets(dev.Size(), cfg.Cores, topo.Sockets())
	m := &Machine{
		cfg:    cfg,
		L3:     cache.New(cfg.L3),
		PM:     dev,
		Topo:   topo,
		Layout: layouts[0],
		vol:    pmem.NewImage(dev.Size()),
	}
	topo.SetTracer(cfg.Trace)
	m.cores = make([]*Core, cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &Core{
			ID:     i,
			Home:   i % topo.Sockets(),
			L1:     cache.New(cfg.L1),
			L2:     cache.New(cfg.L2),
			PM:     dev,
			Layout: layouts[i],
			Stats:  &stats.Counters{},
			sh:     m,
			tr:     cfg.Trace,
			prof:   cfg.Profile,
		}
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Cores returns the cores (shared slice; do not mutate).
func (m *Machine) Cores() []*Core { return m.cores }

// MergedStats sums the per-core counters into one aggregate view.
func (m *Machine) MergedStats() stats.Counters {
	var out stats.Counters
	for _, c := range m.cores {
		out.Add(c.Stats)
	}
	return out
}

// MaxClk returns the highest core clock — the machine's wall time.
func (m *Machine) MaxClk() uint64 {
	var max uint64
	for _, c := range m.cores {
		if c.Clk > max {
			max = c.Clk
		}
	}
	return max
}

// SyncClocks aligns every core to the highest clock — the barrier a
// harness issues between a (single-core) setup phase and a measured
// parallel phase, so all cores start the phase simultaneously.
func (m *Machine) SyncClocks() uint64 {
	max := m.MaxClk()
	for _, c := range m.cores {
		//slpmt:chargeflow-ok: harness barrier between phases, not a simulated cycle cost; it runs outside the measured region (profiles are reset after the sync)
		c.Clk = max
	}
	return max
}

// Crash returns the durable image as of now — the ADR crash snapshot.
func (m *Machine) Crash() *pmem.Image { return m.PM.Crash() }

// snoopFetch services core c's bus request for line la after it missed
// in c's private caches: remote private copies are downgraded (read) or
// invalidated (write), dirty remote copies are written back to PM
// first, and c pays the snoop penalty if any remote copy was found.
// found reports whether any remote copy existed (the line can then be
// served by a cache-to-cache transfer); shared reports whether a remote
// cache still holds a copy afterwards (read case), which decides the
// Shared/Exclusive fill state.
func (m *Machine) snoopFetch(c *Core, la mem.Addr, write bool) (found, shared bool) {
	for _, o := range m.cores {
		if o == c {
			continue
		}
		for _, lvl := range [2]*cache.Cache{o.L1, o.L2} {
			l := lvl.Peek(la)
			if l == nil {
				continue
			}
			found = true
			if l.State == cache.Modified {
				o.coherenceWriteback(la)
			}
			if write {
				lvl.Remove(la)
				o.Stats.CoherenceInvalidations++
				o.Trace(trace.KCohInval, la, 0)
			} else {
				l.State = cache.Shared
				shared = true
				o.Stats.CoherenceDowngrades++
				o.Trace(trace.KCohDowngrade, la, 0)
			}
		}
	}
	if found {
		c.charge(profile.CauseCoherence, m.cfg.CoherenceCycles)
		c.Stats.CoherenceSnoops++
		var w uint64
		if write {
			w = 1
		}
		c.Trace(trace.KCohSnoop, la, w)
	}
	return found, shared
}

// busWrite announces core c's write request for line la to the rest of
// the machine (the coherence event the SLPMT lazy-persistency checks
// key on). It fires for every store whose line is not already owned
// Modified/Exclusive by c — bus upgrades and read-for-ownership alike.
func (m *Machine) busWrite(src int, la mem.Addr) {
	if m.OnRemoteStore != nil {
		m.OnRemoteStore(src, la)
	}
}

// snoopUpgrade invalidates the remote Shared copies of a line core c
// holds Shared and now wants to write (bus upgrade). Remote copies of a
// Shared line are clean by the SWMR invariant, so no writeback occurs.
func (m *Machine) snoopUpgrade(c *Core, la mem.Addr) {
	found := false
	for _, o := range m.cores {
		if o == c {
			continue
		}
		for _, lvl := range [2]*cache.Cache{o.L1, o.L2} {
			if lvl.Peek(la) != nil {
				lvl.Remove(la)
				o.Stats.CoherenceInvalidations++
				o.Trace(trace.KCohInval, la, 0)
				found = true
			}
		}
	}
	if found {
		c.charge(profile.CauseCoherence, m.cfg.CoherenceCycles)
		c.Stats.CoherenceSnoops++
		c.Trace(trace.KCohSnoop, la, 1)
	}
}
