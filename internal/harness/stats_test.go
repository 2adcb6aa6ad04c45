package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/units"
)

// TestFigure4CellStatsMatchesPlain is the metrics determinism guard: the
// harvest tick reads counters but never touches the RNG or any component
// state, so an instrumented cell must produce byte-identical bandwidth
// results to the plain one.
func TestFigure4CellStatsMatchesPlain(t *testing.T) {
	opt := quick()
	want, _, err := Figure4Cell(opt, 1, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	got, _, err := Figure4Cell(opt, 1, 2, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("metrics changed the result:\nplain %+v\nstats %+v", want, got)
	}
	if reg.Total() == 0 {
		t.Fatal("registry harvested no windows")
	}
}

// TestFigure4StatsBottleneckNamesSharedUMC: in the UMC/GMI scenario with
// equal over-subscribing demands, the shared memory channel is where the
// paper says the congestion lives — the attributor must rank it first in
// every harvested window.
func TestFigure4StatsBottleneckNamesSharedUMC(t *testing.T) {
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	if _, _, err := Figure4Cell(quick(), 1, 2, nil, reg); err != nil {
		t.Fatal(err)
	}
	if reg.Total() == 0 {
		t.Fatal("no windows harvested")
	}
	for w := reg.FirstWindow(); w < reg.Total(); w++ {
		ranked := metrics.Bottlenecks(reg, w, 1)
		if len(ranked) == 0 {
			t.Fatalf("window %d: no congestion recorded", w)
		}
		if !strings.HasPrefix(ranked[0].Resource, "umc0") {
			t.Errorf("window %d: top bottleneck = %s (%v), want the shared channel umc0/*",
				w, ranked[0].Resource, ranked[0].Wait)
		}
	}
}

// TestStatsFamiliesInAllFormats: the instrumented cell must report all
// four subsystem families — link, mesh, memsys and pool — and each of
// the three export formats must carry them.
func TestStatsFamiliesInAllFormats(t *testing.T) {
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	if _, _, err := Figure4Cell(quick(), 1, 2, nil, reg); err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	for i := 0; i < reg.NumInstruments(); i++ {
		families[reg.Desc(i).Family] = true
	}
	for _, fam := range []string{"link", "mesh", "memsys", "pool"} {
		if !families[fam] {
			t.Errorf("family %q has no instruments", fam)
		}
	}

	var jsonBuf, omBuf, csvBuf bytes.Buffer
	if err := reg.Dump().WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WriteOpenMetrics(&omBuf, reg); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WriteCSV(&csvBuf, reg); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"link", "mesh", "memsys", "pool"} {
		if !strings.Contains(jsonBuf.String(), `"family": "`+fam+`"`) {
			t.Errorf("JSON export missing family %q", fam)
		}
		if !strings.Contains(omBuf.String(), `family="`+fam+`"`) {
			t.Errorf("OpenMetrics export missing family %q", fam)
		}
		if !strings.Contains(csvBuf.String(), ","+fam+",") {
			t.Errorf("CSV export missing family %q", fam)
		}
	}
}

// TestFigure5StatsRunMatchesPlain: the Figure 5 trace with a registry
// attached must reproduce the plain trace exactly and harvest one window
// per simulated 100 us over the six-virtual-second schedule.
func TestFigure5StatsRunMatchesPlain(t *testing.T) {
	opt := quick()
	sc := 0 // 9634 IF panel
	want, err := Figure5Run(Figure5Scenarios()[sc], opt)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New(metrics.Config{})
	got, err := Figure5StatsRun(opt, sc, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("metrics changed the Figure 5 trace")
	}
	// Six virtual seconds at one window per 100 us.
	if reg.Total() != 60 {
		t.Errorf("harvested %d windows, want 60", reg.Total())
	}
}

// TestStatsCellValidation covers the index guards of both observed-cell
// entry points and Figure5StatsRun's nil-registry guard. (Figure4Cell
// takes a nil registry as "not attached".)
func TestStatsCellValidation(t *testing.T) {
	reg := metrics.New(metrics.Config{})
	if _, _, err := Figure4Cell(quick(), 99, 0, nil, reg); err == nil {
		t.Error("scenario out of range accepted")
	}
	if _, _, err := Figure4Cell(quick(), 0, 99, nil, reg); err == nil {
		t.Error("case out of range accepted")
	}
	if _, _, err := Figure4Cell(quick(), -1, 0, nil, nil); err == nil {
		t.Error("negative scenario accepted")
	}
	if _, _, err := Figure4Cell(quick(), 0, -1, nil, nil); err == nil {
		t.Error("negative case accepted")
	}
	if _, err := Figure5StatsRun(quick(), 99, reg); err == nil {
		t.Error("fig5 scenario out of range accepted")
	}
	if _, err := Figure5StatsRun(quick(), 0, nil); err == nil {
		t.Error("fig5 nil registry accepted")
	}
}
