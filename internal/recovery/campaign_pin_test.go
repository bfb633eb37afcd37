package recovery_test

import (
	"fmt"
	"testing"

	"github.com/persistmem/slpmt/internal/recovery"
)

// TestCampaignTotalsPinned pins the literal CampaignResult of strided
// campaigns over the execution shapes a campaign supports: three
// structures × an undo-logging (SLPMT) and a flush-based (FG) scheme ×
// 1–2 cores × W ∈ {1,4} × 1–2 sockets, plus a 1-core mixed
// insert/update/delete stream. Any change to how a campaign executes,
// counts persist events, places crash points or recovers shows up here
// as a changed total; a deliberate model change must re-pin the table.
func TestCampaignTotalsPinned(t *testing.T) {
	pins := []struct {
		workload, scheme       string
		cores, window, sockets int
		mixed                  bool
		want                   recovery.CampaignResult
	}{
		{"hashtable", "SLPMT", 1, 1, 1, false, recovery.CampaignResult{TotalPersistEvents: 341, PointsTested: 67, PendingAccepted: 7, RecordsApplied: 80, LeakedBytes: 24200}},
		{"hashtable", "SLPMT", 1, 1, 2, false, recovery.CampaignResult{TotalPersistEvents: 341, PointsTested: 67, PendingAccepted: 7, RecordsApplied: 80, LeakedBytes: 24200}},
		{"hashtable", "SLPMT", 1, 4, 1, false, recovery.CampaignResult{TotalPersistEvents: 163, PointsTested: 31, PendingAccepted: 1, RecordsApplied: 126, LeakedBytes: 10432}},
		{"hashtable", "SLPMT", 1, 4, 2, false, recovery.CampaignResult{TotalPersistEvents: 163, PointsTested: 31, PendingAccepted: 1, RecordsApplied: 126, LeakedBytes: 10432}},
		{"hashtable", "SLPMT", 2, 1, 1, false, recovery.CampaignResult{TotalPersistEvents: 341, PointsTested: 67, PendingAccepted: 7, RecordsApplied: 80, LeakedBytes: 24200}},
		{"hashtable", "SLPMT", 2, 1, 2, false, recovery.CampaignResult{TotalPersistEvents: 343, PointsTested: 67, PendingAccepted: 7, RecordsApplied: 82, LeakedBytes: 24368}},
		{"hashtable", "SLPMT", 2, 4, 1, false, recovery.CampaignResult{TotalPersistEvents: 176, PointsTested: 33, PendingAccepted: 4, RecordsApplied: 121, LeakedBytes: 10208}},
		{"hashtable", "SLPMT", 2, 4, 2, false, recovery.CampaignResult{TotalPersistEvents: 180, PointsTested: 34, PendingAccepted: 2, RecordsApplied: 137, LeakedBytes: 11672}},
		{"hashtable", "FG", 1, 1, 1, false, recovery.CampaignResult{TotalPersistEvents: 410, PointsTested: 80, PendingAccepted: 11, RecordsApplied: 321, LeakedBytes: 27712}},
		{"hashtable", "FG", 1, 1, 2, false, recovery.CampaignResult{TotalPersistEvents: 410, PointsTested: 80, PendingAccepted: 11, RecordsApplied: 321, LeakedBytes: 27712}},
		{"hashtable", "FG", 1, 4, 1, false, recovery.CampaignResult{TotalPersistEvents: 233, PointsTested: 45, PendingAccepted: 2, RecordsApplied: 575, LeakedBytes: 13192}},
		{"hashtable", "FG", 1, 4, 2, false, recovery.CampaignResult{TotalPersistEvents: 233, PointsTested: 45, PendingAccepted: 2, RecordsApplied: 575, LeakedBytes: 13192}},
		{"hashtable", "FG", 2, 1, 1, false, recovery.CampaignResult{TotalPersistEvents: 410, PointsTested: 80, PendingAccepted: 11, RecordsApplied: 321, LeakedBytes: 27712}},
		{"hashtable", "FG", 2, 1, 2, false, recovery.CampaignResult{TotalPersistEvents: 412, PointsTested: 81, PendingAccepted: 9, RecordsApplied: 365, LeakedBytes: 27096}},
		{"hashtable", "FG", 2, 4, 1, false, recovery.CampaignResult{TotalPersistEvents: 281, PointsTested: 54, PendingAccepted: 4, RecordsApplied: 948, LeakedBytes: 13864}},
		{"hashtable", "FG", 2, 4, 2, false, recovery.CampaignResult{TotalPersistEvents: 263, PointsTested: 50, PendingAccepted: 3, RecordsApplied: 881, LeakedBytes: 12848}},
		{"rbtree", "SLPMT", 1, 1, 1, false, recovery.CampaignResult{TotalPersistEvents: 405, PointsTested: 80, PendingAccepted: 11, RecordsApplied: 272, LeakedBytes: 0}},
		{"rbtree", "SLPMT", 1, 1, 2, false, recovery.CampaignResult{TotalPersistEvents: 405, PointsTested: 80, PendingAccepted: 11, RecordsApplied: 272, LeakedBytes: 0}},
		{"rbtree", "SLPMT", 1, 4, 1, false, recovery.CampaignResult{TotalPersistEvents: 235, PointsTested: 46, PendingAccepted: 0, RecordsApplied: 458, LeakedBytes: 0}},
		{"rbtree", "SLPMT", 1, 4, 2, false, recovery.CampaignResult{TotalPersistEvents: 235, PointsTested: 46, PendingAccepted: 0, RecordsApplied: 458, LeakedBytes: 0}},
		{"rbtree", "SLPMT", 2, 1, 1, false, recovery.CampaignResult{TotalPersistEvents: 418, PointsTested: 82, PendingAccepted: 9, RecordsApplied: 290, LeakedBytes: 0}},
		{"rbtree", "SLPMT", 2, 1, 2, false, recovery.CampaignResult{TotalPersistEvents: 416, PointsTested: 82, PendingAccepted: 10, RecordsApplied: 265, LeakedBytes: 0}},
		{"rbtree", "SLPMT", 2, 4, 1, false, recovery.CampaignResult{TotalPersistEvents: 334, PointsTested: 65, PendingAccepted: 4, RecordsApplied: 956, LeakedBytes: 0}},
		{"rbtree", "SLPMT", 2, 4, 2, false, recovery.CampaignResult{TotalPersistEvents: 286, PointsTested: 56, PendingAccepted: 6, RecordsApplied: 636, LeakedBytes: 0}},
		{"rbtree", "FG", 1, 1, 1, false, recovery.CampaignResult{TotalPersistEvents: 468, PointsTested: 92, PendingAccepted: 6, RecordsApplied: 374, LeakedBytes: 0}},
		{"rbtree", "FG", 1, 1, 2, false, recovery.CampaignResult{TotalPersistEvents: 468, PointsTested: 92, PendingAccepted: 6, RecordsApplied: 374, LeakedBytes: 0}},
		{"rbtree", "FG", 1, 4, 1, false, recovery.CampaignResult{TotalPersistEvents: 288, PointsTested: 56, PendingAccepted: 3, RecordsApplied: 736, LeakedBytes: 0}},
		{"rbtree", "FG", 1, 4, 2, false, recovery.CampaignResult{TotalPersistEvents: 288, PointsTested: 56, PendingAccepted: 3, RecordsApplied: 736, LeakedBytes: 0}},
		{"rbtree", "FG", 2, 1, 1, false, recovery.CampaignResult{TotalPersistEvents: 482, PointsTested: 95, PendingAccepted: 4, RecordsApplied: 407, LeakedBytes: 0}},
		{"rbtree", "FG", 2, 1, 2, false, recovery.CampaignResult{TotalPersistEvents: 477, PointsTested: 94, PendingAccepted: 8, RecordsApplied: 405, LeakedBytes: 0}},
		{"rbtree", "FG", 2, 4, 1, false, recovery.CampaignResult{TotalPersistEvents: 310, PointsTested: 60, PendingAccepted: 5, RecordsApplied: 895, LeakedBytes: 0}},
		{"rbtree", "FG", 2, 4, 2, false, recovery.CampaignResult{TotalPersistEvents: 310, PointsTested: 60, PendingAccepted: 5, RecordsApplied: 895, LeakedBytes: 0}},
		{"kv-btree", "SLPMT", 1, 1, 1, false, recovery.CampaignResult{TotalPersistEvents: 439, PointsTested: 86, PendingAccepted: 6, RecordsApplied: 363, LeakedBytes: 0}},
		{"kv-btree", "SLPMT", 1, 1, 2, false, recovery.CampaignResult{TotalPersistEvents: 439, PointsTested: 86, PendingAccepted: 6, RecordsApplied: 363, LeakedBytes: 0}},
		{"kv-btree", "SLPMT", 1, 4, 1, false, recovery.CampaignResult{TotalPersistEvents: 250, PointsTested: 48, PendingAccepted: 1, RecordsApplied: 752, LeakedBytes: 0}},
		{"kv-btree", "SLPMT", 1, 4, 2, false, recovery.CampaignResult{TotalPersistEvents: 250, PointsTested: 48, PendingAccepted: 1, RecordsApplied: 752, LeakedBytes: 0}},
		{"kv-btree", "SLPMT", 2, 1, 1, false, recovery.CampaignResult{TotalPersistEvents: 436, PointsTested: 85, PendingAccepted: 3, RecordsApplied: 362, LeakedBytes: 0}},
		{"kv-btree", "SLPMT", 2, 1, 2, false, recovery.CampaignResult{TotalPersistEvents: 452, PointsTested: 88, PendingAccepted: 10, RecordsApplied: 349, LeakedBytes: 0}},
		{"kv-btree", "SLPMT", 2, 4, 1, false, recovery.CampaignResult{TotalPersistEvents: 262, PointsTested: 50, PendingAccepted: 4, RecordsApplied: 726, LeakedBytes: 0}},
		{"kv-btree", "SLPMT", 2, 4, 2, false, recovery.CampaignResult{TotalPersistEvents: 269, PointsTested: 52, PendingAccepted: 3, RecordsApplied: 763, LeakedBytes: 0}},
		{"kv-btree", "FG", 1, 1, 1, false, recovery.CampaignResult{TotalPersistEvents: 495, PointsTested: 96, PendingAccepted: 5, RecordsApplied: 544, LeakedBytes: 0}},
		{"kv-btree", "FG", 1, 1, 2, false, recovery.CampaignResult{TotalPersistEvents: 495, PointsTested: 96, PendingAccepted: 5, RecordsApplied: 544, LeakedBytes: 0}},
		{"kv-btree", "FG", 1, 4, 1, false, recovery.CampaignResult{TotalPersistEvents: 310, PointsTested: 59, PendingAccepted: 2, RecordsApplied: 1008, LeakedBytes: 0}},
		{"kv-btree", "FG", 1, 4, 2, false, recovery.CampaignResult{TotalPersistEvents: 310, PointsTested: 59, PendingAccepted: 2, RecordsApplied: 1008, LeakedBytes: 0}},
		{"kv-btree", "FG", 2, 1, 1, false, recovery.CampaignResult{TotalPersistEvents: 499, PointsTested: 97, PendingAccepted: 9, RecordsApplied: 501, LeakedBytes: 0}},
		{"kv-btree", "FG", 2, 1, 2, false, recovery.CampaignResult{TotalPersistEvents: 514, PointsTested: 100, PendingAccepted: 10, RecordsApplied: 540, LeakedBytes: 0}},
		{"kv-btree", "FG", 2, 4, 1, false, recovery.CampaignResult{TotalPersistEvents: 321, PointsTested: 61, PendingAccepted: 6, RecordsApplied: 955, LeakedBytes: 0}},
		{"kv-btree", "FG", 2, 4, 2, false, recovery.CampaignResult{TotalPersistEvents: 328, PointsTested: 63, PendingAccepted: 5, RecordsApplied: 1012, LeakedBytes: 0}},
		{"hashtable", "SLPMT", 1, 1, 1, true, recovery.CampaignResult{TotalPersistEvents: 279, PointsTested: 54, PendingAccepted: 9, RecordsApplied: 69, LeakedBytes: 672}},
	}
	for _, p := range pins {
		name := fmt.Sprintf("%s/%s/%dc-w%d-%ds", p.workload, p.scheme, p.cores, p.window, p.sockets)
		if p.mixed {
			name += "/mixed"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got, err := recovery.RunCampaign(recovery.CampaignConfig{
				Workload: p.workload, Scheme: p.scheme, N: 40, ValueSize: 32, Seed: 5,
				Cores: p.cores, CommitWindow: p.window, Sockets: p.sockets, Mixed: p.mixed,
				Stride: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if *got != p.want {
				t.Errorf("campaign totals changed:\n  got:  %+v\n  want: %+v", *got, p.want)
			}
		})
	}
}
