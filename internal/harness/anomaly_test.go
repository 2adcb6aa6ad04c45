package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/anomaly/correlate"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestFigure4CellMonitoredMatchesPlain is the detector determinism
// guard: the monitor only reads the registry's windows, so a monitored
// cell must produce byte-identical bandwidth results to the plain one.
func TestFigure4CellMonitoredMatchesPlain(t *testing.T) {
	opt := quick()
	want, _, err := Figure4Cell(opt, 1, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	mon := anomaly.Attach(reg, anomaly.Config{})
	got, _, err := Figure4Cell(opt, 1, 2, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("detectors changed the result:\nplain     %+v\nmonitored %+v", want, got)
	}
	if mon.NumWatched() == 0 {
		t.Fatal("monitor watched no instruments")
	}
}

// TestFigure4CellMonitorNamesSharedUMC: in the UMC/GMI scenario with
// equal over-subscribing demands, congestion on the shared memory
// channel is steady by the time the registry starts (after convergence),
// so the zero-primed detector must raise an incident naming umc0's read
// channel at the first harvested window — and the linked bottleneck
// ranking must agree.
func TestFigure4CellMonitorNamesSharedUMC(t *testing.T) {
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	mon := anomaly.Attach(reg, anomaly.Config{})
	if _, _, err := Figure4Cell(quick(), 1, 2, nil, reg); err != nil {
		t.Fatal(err)
	}
	incs := mon.Incidents()
	if len(incs) == 0 {
		t.Fatal("over-subscribed shared-UMC cell raised no incidents")
	}
	var umc *anomaly.Incident
	for i := range incs {
		if strings.HasPrefix(incs[i].Resource, "umc0") {
			umc = &incs[i]
			break
		}
	}
	if umc == nil {
		t.Fatalf("no incident names umc0/*: %v", anomaly.Report(incs))
	}
	if umc.OnsetWindow != reg.FirstWindow() {
		t.Errorf("umc0 incident onset at window %d, want the first harvested window %d",
			umc.OnsetWindow, reg.FirstWindow())
	}
	if !umc.Open() {
		t.Errorf("steady congestion cleared at window %d, want open through the run", umc.ClearWindow)
	}
	if len(umc.Bottlenecks) == 0 || !strings.HasPrefix(umc.Bottlenecks[0].Resource, "umc0") {
		t.Errorf("incident's linked ranking = %+v, want umc0/* first", umc.Bottlenecks)
	}
}

// TestFigure5StatsRunMonitoredMatchesPlain: same invisibility contract
// for the Figure 5 schedule.
func TestFigure5StatsRunMonitoredMatchesPlain(t *testing.T) {
	opt := quick()
	want, err := figure5Run(Figure5Scenarios()[0], opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New(metrics.Config{})
	mon := anomaly.Attach(reg, anomaly.Config{})
	got, err := Figure5StatsRun(opt, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("detectors changed the Figure 5 result")
	}
	if mon.NumWatched() == 0 {
		t.Fatal("monitor watched no instruments")
	}
}

// TestFigure4CellFusedWindowVerdict runs tracer and registry on one
// engine and checks the fused view against the flight recorder's own
// span-level verdict: the spans SpansInWindow returns for the incident's
// onset window are exactly the ones a brute-force EachSpan overlap
// filter selects, they are non-empty, and they include wait time on the
// congested umc0/rd hop itself.
func TestFigure4CellFusedWindowVerdict(t *testing.T) {
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	mon := anomaly.Attach(reg, anomaly.Config{})
	tr := trace.New(trace.Config{})
	if _, _, err := Figure4Cell(quick(), 1, 2, tr, reg); err != nil {
		t.Fatal(err)
	}
	incs := mon.Incidents()
	var umc *anomaly.Incident
	for i := range incs {
		if incs[i].Resource == "umc0/rd" {
			umc = &incs[i]
			break
		}
	}
	if umc == nil {
		t.Fatalf("no umc0/rd incident to fuse: %v", anomaly.Report(incs))
	}

	fused := anomaly.Fuse(*umc, tr)
	if len(fused.Spans) == 0 {
		t.Fatal("fused onset window holds no spans")
	}

	// The flight recorder's verdict: brute-force overlap filter over the
	// whole ring must select exactly the fused span set, in order.
	var want []trace.Span
	tr.EachSpan(func(s trace.Span) {
		if s.End > fused.Start && s.Start < fused.End {
			want = append(want, s)
		}
	})
	if !reflect.DeepEqual(fused.Spans, want) {
		t.Fatalf("fused spans diverge from the recorder's verdict: %d vs %d spans",
			len(fused.Spans), len(want))
	}
	// Every fused span genuinely overlaps the window.
	for _, s := range fused.Spans {
		if s.End <= fused.Start || s.Start >= fused.End {
			t.Fatalf("span [%v,%v) outside fused window [%v,%v)", s.Start, s.End, fused.Start, fused.End)
		}
	}

	// The congested resource's own hop appears among the fused spans with
	// wait time — the metrics-side name keys into the trace-side hop.
	hops := tr.Hops()
	sawUMCWait := false
	for _, s := range fused.Spans {
		if hops[s.Hop].Name == "umc0/rd" && s.Cause == trace.CauseQueued {
			sawUMCWait = true
			break
		}
	}
	if !sawUMCWait {
		t.Error("fused window has no queueing span on the umc0/rd hop")
	}

	// And the rendered fusion names the resource.
	out := fused.Render(hops, 5)
	if !strings.Contains(out, "umc0/rd") {
		t.Errorf("fusion render missing umc0/rd:\n%s", out)
	}
}

// TestFig4IncidentJSONRoundTrip is the persistence golden test for the
// shared-UMC incident: severity refreshes arrive mid-incident as each
// window is harvested, and both interchange forms — the /incidents JSON
// feed and the archive's hand-rolled JSONL encoder — must reproduce the
// incident bit-exactly, peak-timing stamps included.
func TestFig4IncidentJSONRoundTrip(t *testing.T) {
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	mon := anomaly.Attach(reg, anomaly.Config{})
	if _, _, err := Figure4Cell(quick(), 1, 2, nil, reg); err != nil {
		t.Fatal(err)
	}
	want := mon.Incidents()
	var umc *anomaly.Incident
	for i := range want {
		if want[i].Resource == "umc0/rd" {
			umc = &want[i]
			break
		}
	}
	if umc == nil {
		t.Fatalf("no umc0/rd incident: %v", anomaly.Report(want))
	}
	// The incident carries mid-window severity state: the peak stamps must
	// point inside the run, at the window whose sample equals Severity.
	if umc.PeakPS == 0 || umc.PeakWindow < umc.OnsetWindow {
		t.Fatalf("peak stamps missing: window %d at %v", umc.PeakWindow, umc.PeakPS)
	}
	if umc.PeakPS != reg.WindowEnd(umc.PeakWindow) {
		t.Errorf("PeakPS = %v, want window %d's end %v", umc.PeakPS, umc.PeakWindow, reg.WindowEnd(umc.PeakWindow))
	}

	// Feed form (anomaly.WriteJSON / ReadJSON).
	var buf bytes.Buffer
	if err := anomaly.WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := anomaly.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("feed round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}

	// Archive form (hand-rolled encoder, stdlib decoder).
	var jl bytes.Buffer
	arch := anomaly.NewArchive(&jl)
	for _, in := range want {
		arch.Record(anomaly.ArchiveRecord{Cell: "fig4/s1c2", Event: anomaly.EventUpdate, Incident: in})
	}
	recs, _, err := anomaly.ReadArchive(&jl)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("archive holds %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(recs[i].Incident, want[i]) {
			t.Errorf("archive round trip diverged at %d:\ngot  %+v\nwant %+v", i, recs[i].Incident, want[i])
		}
	}
}

// TestCorrelateAcrossConfigs runs two over-subscribing Figure 4 demand
// configs through the serving fleet's lifecycle pipeline and checks the
// correlation report names umc0/rd's saturation order across both — the
// /correlate acceptance path, minus the HTTP layer.
func TestCorrelateAcrossConfigs(t *testing.T) {
	fleet := serve.NewFleet()
	for _, run := range []struct {
		name string
		c    int
	}{{"fig4/s1c2", 2}, {"fig4/s1c3", 3}} {
		cell := fleet.Add(run.name, 0)
		reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
		mon := anomaly.Attach(reg, anomaly.Config{})
		cell.Observe(reg, mon)
		if _, _, err := Figure4Cell(quick(), 1, run.c, nil, reg); err != nil {
			t.Fatal(err)
		}
		cell.Finish("done", nil)
	}
	series := correlate.Correlate(fleet.Records())
	if len(series) == 0 {
		t.Fatal("no correlated series from two over-subscribed configs")
	}
	var umc *correlate.Series
	for i := range series {
		if series[i].Resource == "umc0/rd" {
			umc = &series[i]
			break
		}
	}
	if umc == nil {
		t.Fatalf("no umc0/rd series: %+v", series)
	}
	if len(umc.Onsets) < 2 {
		t.Fatalf("umc0/rd has %d onsets, want one per config", len(umc.Onsets))
	}
	cells := map[string]bool{}
	for _, o := range umc.Onsets {
		cells[o.Cell] = true
	}
	if !cells["fig4/s1c2"] || !cells["fig4/s1c3"] {
		t.Errorf("saturation order missing a config: %+v", umc.Onsets)
	}
	out := correlate.Render(series, 0)
	if !strings.Contains(out, "umc0/rd") || !strings.Contains(out, "fig4/s1c2") || !strings.Contains(out, "fig4/s1c3") {
		t.Errorf("report does not name the saturation order:\n%s", out)
	}
}

// TestFusedTraceFileAcceptance is the tentpole's end-to-end check: one
// Chrome-trace file holding both the span timeline and the incident
// annotation track, where the umc0/rd onset marker lands inside the
// window whose spans show the queued-time spike.
func TestFusedTraceFileAcceptance(t *testing.T) {
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	mon := anomaly.Attach(reg, anomaly.Config{})
	tr := trace.New(trace.Config{})
	if _, _, err := Figure4Cell(quick(), 1, 2, tr, reg); err != nil {
		t.Fatal(err)
	}
	var umc *anomaly.Incident
	for _, in := range mon.Incidents() {
		if in.Resource == "umc0/rd" {
			in := in
			umc = &in
			break
		}
	}
	if umc == nil {
		t.Fatalf("no umc0/rd incident: %v", anomaly.Report(mon.Incidents()))
	}

	var buf bytes.Buffer
	if err := anomaly.WriteFusedTraceEvents(&buf, tr, mon.Incidents()); err != nil {
		t.Fatal(err)
	}
	ld, err := trace.ReadTraceEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("fused file does not load: %v", err)
	}
	if len(ld.Spans) == 0 || len(ld.Annotations) == 0 {
		t.Fatalf("fused file holds %d spans, %d annotations; want both", len(ld.Spans), len(ld.Annotations))
	}

	var ann *trace.Annotation
	for i := range ld.Annotations {
		if ld.Annotations[i].Name == "umc0/rd" {
			ann = &ld.Annotations[i]
			break
		}
	}
	if ann == nil {
		t.Fatalf("fused file has no umc0/rd annotation: %+v", ld.Annotations)
	}
	// The onset marker (the annotation's start) lands inside the onset
	// window, and the annotation carries the detector's verdict.
	if ann.Start != umc.OnsetStart || ann.Start >= umc.OnsetEnd {
		t.Errorf("onset marker at %v, want inside [%v,%v)", ann.Start, umc.OnsetStart, umc.OnsetEnd)
	}
	if ann.Severity != umc.Severity || ann.Detector != umc.Detector || ann.Open != umc.Open() {
		t.Errorf("annotation args = %+v, incident = %+v", ann, umc)
	}

	// The same file's spans show the spike: queued time on the umc0/rd hop
	// inside the onset window.
	win := ld.Window(umc.OnsetStart, umc.OnsetEnd)
	var queued units.Time
	for _, s := range win.Spans {
		if int(s.Hop) < len(ld.Hops) && ld.Hops[s.Hop].Name == "umc0/rd" && s.Cause == trace.CauseQueued {
			from, to := s.Start, s.End
			if from < umc.OnsetStart {
				from = umc.OnsetStart
			}
			if to > umc.OnsetEnd {
				to = umc.OnsetEnd
			}
			queued += to - from
		}
	}
	if queued == 0 {
		t.Error("onset window's spans show no queued time on the umc0/rd hop")
	}
}
