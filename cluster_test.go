package slpmt_test

import (
	"fmt"
	"testing"

	"github.com/persistmem/slpmt"
)

// runShardedInserts drives n insert transactions sharded round-robin
// across the cluster's cores into one shared table keyed by root slot
// 0, and returns the makespan and merged counters.
func runShardedInserts(t *testing.T, cores, n int) (*slpmt.Cluster, uint64) {
	t.Helper()
	cl := slpmt.NewCluster(cores, slpmt.Options{Scheme: "SLPMT"})

	// Shared array of n slots, allocated once on core 0.
	var arr slpmt.Addr
	sys0 := cl.Use(0)
	if err := sys0.Update(func(tx *slpmt.Tx) error {
		arr = tx.Alloc(uint64(n) * 8)
		tx.SetRoot(0, uint64(arr))
		return nil
	}); err != nil {
		t.Fatalf("setup: %v", err)
	}
	cl.SyncClocks()

	if err := cl.RoundRobin(n, func(sys *slpmt.System, j int) error {
		if sys != cl.Sys[j%cores] {
			t.Fatalf("insert %d ran off core %d", j, j%cores)
		}
		return sys.Update(func(tx *slpmt.Tx) error {
			tx.StoreU64(arr+slpmt.Addr(j*8), uint64(j)+1)
			return nil
		})
	}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	cl.DrainLazy()

	// Every slot must hold its value regardless of which core wrote it.
	cl.Use(0).View(func(tx *slpmt.Tx) {
		for j := 0; j < n; j++ {
			if got := tx.LoadU64(arr + slpmt.Addr(j*8)); got != uint64(j)+1 {
				t.Fatalf("slot %d = %d, want %d", j, got, j+1)
			}
		}
	})
	return cl, cl.MaxClk()
}

func TestClusterShardedInserts(t *testing.T) {
	for _, cores := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			runShardedInserts(t, cores, 64)
		})
	}
}

func TestClusterDeterministic(t *testing.T) {
	_, clk1 := runShardedInserts(t, 4, 96)
	cl2, clk2 := runShardedInserts(t, 4, 96)
	if clk1 != clk2 {
		t.Errorf("makespan differs across identical runs: %d vs %d", clk1, clk2)
	}
	cl3, clk3 := runShardedInserts(t, 4, 96)
	s2, s3 := cl2.Stats(), cl3.Stats()
	if clk2 != clk3 || s2 != s3 {
		t.Errorf("merged counters differ across identical runs")
	}
}

func TestClusterCoherenceEventsFire(t *testing.T) {
	// All cores hammer the same line: every handoff is a coherence miss.
	cl := slpmt.NewCluster(4, slpmt.Options{Scheme: "SLPMT"})
	var a slpmt.Addr
	if err := cl.Use(0).Update(func(tx *slpmt.Tx) error {
		a = tx.Alloc(8)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ops := make([]int, 4)
	cl.Interleave(func(core int, sys *slpmt.System) bool {
		ops[core]++
		if err := sys.Update(func(tx *slpmt.Tx) error {
			tx.StoreU64(a, uint64(core))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return ops[core] < 8
	})
	st := cl.Stats()
	if st.CoherenceSnoops == 0 || st.CoherenceInvalidations == 0 {
		t.Errorf("no coherence events on a shared hot line: snoops=%d invalidations=%d",
			st.CoherenceSnoops, st.CoherenceInvalidations)
	}
}

func TestClusterPerCoreLogRegionsDisjoint(t *testing.T) {
	cl := slpmt.NewCluster(4, slpmt.Options{Scheme: "SLPMT"})
	type span struct{ lo, hi uint64 }
	var spans []span
	for _, s := range cl.Sys {
		l := s.Mach.Layout
		spans = append(spans, span{l.LogBase, l.LogBase + l.LogSize})
		if l.HeapBase != cl.Sys[0].Mach.Layout.HeapBase || l.HeapSize != cl.Sys[0].Mach.Layout.HeapSize {
			t.Fatal("heap region differs between cores")
		}
		if l.RootBase != cl.Sys[0].Mach.Layout.RootBase {
			t.Fatal("root region differs between cores")
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("log regions of cores %d and %d overlap", i, j)
			}
		}
	}
}
