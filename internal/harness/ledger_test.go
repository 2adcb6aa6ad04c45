package harness

import "testing"

// TestFlagshipCellLedger pins the event ledger of full-length Figure 4
// cells at seed 42: calendar events dispatched, and channel depart events
// elided by departure stamps. The ledger is seed-exact, so any change to
// how the walkers schedule their hops — an extra event, a lost stamp, a
// reordered continuation — moves it, while wall-clock gates on shared
// hosts could not tell. The 7302 figures are those of the one-event-per-
// hop walker with departure stamps, the only execution path the network
// has.
func TestFlagshipCellLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the ledger is race-agnostic; full-length cells are slow under -race")
	}
	cells := []struct {
		name          string
		scIdx         int
		events, fused uint64
	}{
		{"7302 IF case 3", 3, 8_442_581, 5_601_736},
		{"9634 IF case 3", 0, 2_819_435, 1_848_163},
	}
	for _, c := range cells {
		_, perf, err := Figure4Cell(Options{Seed: 42, TimeScale: 1}, c.scIdx, 2, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if perf.Events != c.events || perf.Fused != c.fused {
			t.Errorf("%s: ledger %d events + %d fused, want %d + %d",
				c.name, perf.Events, perf.Fused, c.events, c.fused)
		}
	}
}
