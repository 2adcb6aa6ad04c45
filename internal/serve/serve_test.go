package serve_test

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/units"
)

const win = 10 * units.Microsecond

// cellFixture is a synthetic experiment cell: one wait_ps counter whose
// per-window rate the test scripts, with monitor and serve mirror
// attached in the production order (detector first, mirror second).
type cellFixture struct {
	eng  *sim.Engine
	reg  *metrics.Registry
	mon  *anomaly.Monitor
	cell *serve.Cell
	cum  float64
}

func newCellFixture(f *serve.Fleet, name string, maxWindows int) *cellFixture {
	c := &cellFixture{eng: sim.New(1), reg: metrics.New(metrics.Config{Window: win})}
	c.reg.Counter("umc0/rd", metrics.MetricWait, "memsys", "ps",
		func() float64 { return c.cum })
	c.reg.Counter("gmi0", metrics.MetricWait, "link", "ps",
		func() float64 { return 0 })
	c.mon = anomaly.Attach(c.reg, anomaly.Config{})
	c.cell = f.Add(name, maxWindows)
	c.cell.Observe(c.reg, c.mon)
	c.reg.Start(c.eng)
	return c
}

func (c *cellFixture) play(rates ...float64) {
	w := c.reg.Window()
	for _, r := range rates {
		end := c.eng.Now() + w
		c.eng.At(c.eng.Now()+w/2, func() { c.cum += r * float64(w) })
		c.eng.RunUntil(end)
	}
}

func TestCellMirrorMatchesRegistry(t *testing.T) {
	fleet := serve.NewFleet()
	c := newCellFixture(fleet, "cell0", 0)
	c.play(0.01, 0.02, 5.0, 5.5, 0.01, 0.02, 0.01)
	c.reg.Stop()
	c.cell.Finish("done", nil)

	s := c.cell.Snapshot()
	if s.Dump == nil || s.Windows != 7 {
		t.Fatalf("snapshot = %+v, want 7 mirrored windows", s)
	}
	if s.Dump.FirstWindow() != 0 || s.Dump.Total() != c.reg.Total() {
		t.Fatalf("mirror bounds [%d,%d) vs registry total %d",
			s.Dump.FirstWindow(), s.Dump.Total(), c.reg.Total())
	}
	for w := 0; w < s.Dump.Total(); w++ {
		for i := 0; i < s.Dump.NumInstruments(); i++ {
			got, want := s.Dump.Value(metrics.ID(i), w), c.reg.Value(metrics.ID(i), w)
			if got != want {
				t.Errorf("mirrored value[%d][%d] = %v, registry has %v", i, w, got, want)
			}
		}
		if s.Dump.WindowStart(w) != c.reg.WindowStart(w) || s.Dump.WindowEnd(w) != c.reg.WindowEnd(w) {
			t.Errorf("window %d bounds diverge", w)
		}
	}
	// The incident mirrored through: onset at window 2, cleared, severity
	// refreshed past the onset sample (the open-incident refresh path).
	if len(s.Incidents) != 1 {
		t.Fatalf("mirrored %d incidents, want 1", len(s.Incidents))
	}
	in := s.Incidents[0]
	if in.Resource != "umc0/rd" || in.OnsetWindow != 2 || in.Open() {
		t.Errorf("mirrored incident = %+v, want umc0/rd onset 2 cleared", in)
	}
	if in.Severity < 5.5 {
		t.Errorf("mirrored severity = %v, want the refreshed peak 5.5", in.Severity)
	}
	if !s.Done || s.Result != "done" || s.Err != "" {
		t.Errorf("status = %+v, want done with result", s)
	}
}

func TestMirrorRetentionCap(t *testing.T) {
	fleet := serve.NewFleet()
	c := newCellFixture(fleet, "cell0", 3)
	c.play(0.01, 0.01, 0.01, 0.01, 0.01, 0.01)
	c.reg.Stop()
	s := c.cell.Snapshot()
	if s.Windows != 3 || s.Dump.FirstWindow() != 3 || s.Dump.Total() != 6 {
		t.Fatalf("capped mirror = %d windows [%d,%d), want 3 windows [3,6)",
			s.Windows, s.Dump.FirstWindow(), s.Dump.Total())
	}
	if s.Dump.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", s.Dump.Dropped)
	}
	if got, want := s.Dump.WindowStart(3), 3*win; got != want {
		t.Errorf("oldest retained window starts at %v, want %v", got, want)
	}
}

// TestStatusSnapshotSkipsOnlySeries: the series-free snapshot behind
// /, /cells, /incidents and /correlate must equal the deep copy in every
// field but the series itself — before the first window, mid-run with an
// open incident, and after the mirror's retention cap has cut windows.
func TestStatusSnapshotSkipsOnlySeries(t *testing.T) {
	fleet := serve.NewFleet()
	c := newCellFixture(fleet, "cell0", 4)
	check := func(stage string) {
		t.Helper()
		want := c.cell.Snapshot()
		want.Dump = nil
		if got := c.cell.StatusSnapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: status snapshot = %+v, want %+v", stage, got, want)
		}
	}
	check("before the first window")
	c.play(0.01, 0.02, 5.0, 5.5)
	if s := c.cell.Snapshot(); s.OpenNow == 0 {
		t.Fatalf("fixture opened no incident: %+v", s)
	}
	check("open incident")
	c.play(0.01, 0.02, 0.01, 0.01)
	c.reg.Stop()
	c.cell.Finish("done", nil)
	check("finished, capped")
}

func get(t *testing.T, srv *httptest.Server, path string) (string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestFleetEndpoints(t *testing.T) {
	fleet := serve.NewFleet()
	a := newCellFixture(fleet, "fig4/s1c2", 0)
	a.play(0.01, 5.0, 5.5, 0.01, 0.02)
	a.reg.Stop()
	a.cell.Finish("slowdown 1.42x", nil)
	b := newCellFixture(fleet, "fig4/s1c1", 0)
	b.play(0.01, 0.02, 0.01)
	// b stays running: scraping mid-run is the point of the service.

	srv := httptest.NewServer(fleet.Handler())
	defer srv.Close()

	// Index names both cells and their state.
	idx, _ := get(t, srv, "/")
	for _, want := range []string{"fig4/s1c2", "fig4/s1c1", "done", "running"} {
		if !strings.Contains(idx, want) {
			t.Errorf("index missing %q:\n%s", want, idx)
		}
	}

	// OpenMetrics: one TYPE header for the shared family, per-cell labels,
	// EOF terminator.
	om, ct := get(t, srv, "/metrics")
	if !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("content type = %q", ct)
	}
	if n := strings.Count(om, "# TYPE chiplet_wait_ps counter"); n != 1 {
		t.Errorf("TYPE header appears %d times, want 1:\n%s", n, om)
	}
	for _, want := range []string{`cell="fig4/s1c2"`, `cell="fig4/s1c1"`, `resource="umc0/rd"`} {
		if !strings.Contains(om, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(om), "# EOF") {
		t.Error("exposition missing # EOF terminator")
	}

	// Incidents feed: cell a's episode, tagged with its cell.
	ij, ct := get(t, srv, "/incidents")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("incidents content type = %q", ct)
	}
	var incs []serve.CellIncident
	if err := json.Unmarshal([]byte(ij), &incs); err != nil {
		t.Fatalf("incidents feed does not parse: %v\n%s", err, ij)
	}
	if len(incs) != 1 || incs[0].Cell != "fig4/s1c2" || incs[0].Resource != "umc0/rd" {
		t.Fatalf("incidents = %+v, want one umc0/rd incident from fig4/s1c2", incs)
	}
	if filtered, _ := get(t, srv, "/incidents?cell=fig4/s1c1"); strings.TrimSpace(filtered) != "[]" {
		t.Errorf("cell filter leaked incidents: %s", filtered)
	}

	// Bottleneck table for the onset window.
	bt, _ := get(t, srv, "/bottlenecks?cell=fig4/s1c2&window=1&top=3")
	if !strings.Contains(bt, "umc0/rd") || !strings.Contains(bt, "== cell fig4/s1c2") {
		t.Errorf("bottlenecks table missing the congested resource:\n%s", bt)
	}
	if bad, _ := get(t, srv, "/bottlenecks?cell=fig4/s1c2&window=99"); !strings.Contains(bad, "out of range") {
		t.Errorf("out-of-range window not reported: %s", bad)
	}

	// Cell status JSON.
	cj, _ := get(t, srv, "/cells")
	var cells []serve.Snapshot
	if err := json.Unmarshal([]byte(cj), &cells); err != nil {
		t.Fatalf("cells feed does not parse: %v\n%s", err, cj)
	}
	if len(cells) != 2 || !cells[0].Done || cells[1].Done {
		t.Fatalf("cells = %+v, want [done, running]", cells)
	}
	if cells[0].Result != "slowdown 1.42x" || cells[0].NumIncidents != 1 {
		t.Errorf("cell 0 status = %+v", cells[0])
	}
}

func TestStaticCell(t *testing.T) {
	fleet := serve.NewFleet()
	// Build a dump + incidents the usual way, then serve them statically —
	// the chipletstat -serve path.
	tmp := serve.NewFleet()
	c := newCellFixture(tmp, "x", 0)
	c.play(0.01, 5.0, 0.01, 0.02)
	c.reg.Stop()
	fleet.AddStatic("loaded", c.reg.Dump(), c.mon.Incidents())

	srv := httptest.NewServer(fleet.Handler())
	defer srv.Close()
	om, _ := get(t, srv, "/metrics")
	if !strings.Contains(om, `cell="loaded"`) {
		t.Errorf("static cell missing from exposition:\n%s", om)
	}
	ij, _ := get(t, srv, "/incidents")
	var incs []serve.CellIncident
	if err := json.Unmarshal([]byte(ij), &incs); err != nil || len(incs) != 1 {
		t.Fatalf("static incidents = %v (%v)", incs, err)
	}
}

// TestConcurrentScrape hammers every endpoint while the cell's engine
// goroutine is mid-run — the locking contract, checked under -race.
func TestConcurrentScrape(t *testing.T) {
	fleet := serve.NewFleet()
	c := newCellFixture(fleet, "cell0", 64)
	srv := httptest.NewServer(fleet.Handler())
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			r := 0.01
			if i%10 == 5 {
				r = 5.0 // periodic congestion so incidents mirror mid-scrape
			}
			c.play(r)
		}
		c.reg.Stop()
		c.cell.Finish("ok", nil)
	}()

	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/incidents", "/incidents?open=1", "/bottlenecks", "/correlate", "/correlate?format=json", "/cells", "/"} {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := srv.Client().Get(srv.URL + p)
				if err != nil {
					t.Errorf("GET %s: %v", p, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}
	wg.Wait()
	<-done

	// After the run the mirror is consistent and the episodes landed.
	s := c.cell.Snapshot()
	if !s.Done || s.NumIncidents == 0 {
		t.Fatalf("final snapshot = %+v, want done with incidents", s)
	}
}
