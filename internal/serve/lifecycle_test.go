package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/anomaly/correlate"
	"repro/internal/serve"
)

// TestCellResetClosesOpenIncidents: a -loop round reset must not
// silently discard open incidents — each is closed with a synthetic
// clear stamped at the last mirrored window and recorded to the sinks.
func TestCellResetClosesOpenIncidents(t *testing.T) {
	fleet := serve.NewFleet()
	c := newCellFixture(fleet, "cell0", 0)
	// Onset at window 2 and never calm again: open at end of run.
	c.play(0.01, 0.02, 5.0, 5.5, 6.0)
	c.reg.Stop()
	c.cell.Finish("done", nil)

	s := c.cell.Snapshot()
	if len(s.Incidents) != 1 || !s.Incidents[0].Open() {
		t.Fatalf("fixture should end with one open incident, got %+v", s.Incidents)
	}
	lastEnd := s.Dump.WindowEnd(s.Dump.Total() - 1)

	c.cell.Reset()

	if c.cell.Round() != 1 {
		t.Errorf("Round after reset = %d, want 1", c.cell.Round())
	}
	if s2 := c.cell.Snapshot(); s2.NumIncidents != 0 || s2.Windows != 0 || s2.Done {
		t.Errorf("post-reset snapshot not wiped: %+v", s2)
	}
	// The history holds the full lifecycle; the reset event carries the
	// synthetic clear.
	var reset *anomaly.ArchiveRecord
	for _, ev := range fleet.History().Events() {
		if ev.Event == anomaly.EventReset {
			ev := ev
			reset = &ev
		}
	}
	if reset == nil {
		t.Fatal("no EventReset recorded at Reset")
	}
	in := reset.Incident
	if !in.SyntheticClear || in.Open() {
		t.Errorf("reset record not synthetically closed: %+v", in)
	}
	if in.ClearWindow != 4 || in.ClearEnd != lastEnd {
		t.Errorf("synthetic clear stamped at window %d end %v, want 4 end %v",
			in.ClearWindow, in.ClearEnd, lastEnd)
	}
	if in.Severity < 6.0 {
		t.Errorf("reset record severity = %v, want the final 6.0", in.Severity)
	}
	// The folded fleet view keeps the closed round-0 incident even though
	// the mirror was wiped.
	recs := fleet.Records()
	if len(recs) != 1 || recs[0].Incident.Open() || !recs[0].Incident.SyntheticClear {
		t.Errorf("folded records after reset = %+v, want the synthetic clear", recs)
	}
}

// TestResetBeforeFirstHarvest: a reset with no mirrored windows must
// still close open incidents (stamping from the onset window) and not
// panic — the degenerate -loop round.
func TestResetBeforeFirstHarvest(t *testing.T) {
	fleet := serve.NewFleet()
	c := newCellFixture(fleet, "cell0", 0)
	c.reg.Stop()
	c.cell.Reset() // nothing harvested, nothing open: a no-op reset
	if c.cell.Round() != 1 {
		t.Errorf("Round = %d, want 1", c.cell.Round())
	}
	if evs := fleet.History().Events(); len(evs) != 0 {
		t.Errorf("empty reset recorded %d events", len(evs))
	}
}

// TestFleetCorrelateEndpoint runs two cells whose shared resource
// saturates at different sim-times and checks /correlate reports the
// saturation order, in both renderings.
func TestFleetCorrelateEndpoint(t *testing.T) {
	fleet := serve.NewFleet()
	early := newCellFixture(fleet, "fig4/s1c2", 0)
	early.play(0.01, 5.0, 5.5, 0.01, 0.02) // onset window 1, clears
	early.reg.Stop()
	early.cell.Finish("early", nil)
	late := newCellFixture(fleet, "fig4/s1c1", 0)
	late.play(0.01, 0.02, 0.01, 6.0, 6.5) // onset window 3, stays open
	late.reg.Stop()
	late.cell.Finish("late", nil)

	srv := httptest.NewServer(fleet.Handler())
	defer srv.Close()

	txt, ct := get(t, srv, "/correlate")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		"cross-cell saturation order: 1 resources, 2 incidents, 2 cell runs",
		"#1 umc0/rd wait_ps (memsys): 2 onsets, first fig4/s1c2",
		"open",
	} {
		if !strings.Contains(txt, want) {
			t.Errorf("correlate report missing %q:\n%s", want, txt)
		}
	}

	js, ct := get(t, srv, "/correlate?format=json")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("json content type = %q", ct)
	}
	series, err := correlate.ReadJSON(strings.NewReader(js))
	if err != nil {
		t.Fatalf("correlate JSON does not parse: %v\n%s", err, js)
	}
	if len(series) != 1 || series[0].Resource != "umc0/rd" || len(series[0].Onsets) != 2 {
		t.Fatalf("series = %+v, want one umc0/rd series with 2 onsets", series)
	}
	ons := series[0].Onsets
	if ons[0].Cell != "fig4/s1c2" || ons[1].Cell != "fig4/s1c1" {
		t.Errorf("saturation order = %s, %s; want s1c2 first", ons[0].Cell, ons[1].Cell)
	}
	if ons[0].OnsetPS != 1*win || ons[1].OnsetPS != 3*win {
		t.Errorf("onset stamps = %v, %v; want %v, %v", ons[0].OnsetPS, ons[1].OnsetPS, 1*win, 3*win)
	}
	if !ons[1].Open || ons[1].Severity < 6.5 {
		t.Errorf("late onset = %+v, want open at severity 6.5", ons[1])
	}

	if filtered, _ := get(t, srv, "/correlate?resource=nope"); !strings.Contains(filtered, "no archived incidents") {
		t.Errorf("resource filter did not empty the report: %s", filtered)
	}
	if resp, err := srv.Client().Get(srv.URL + "/correlate?top=x"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad top: status %v err %v, want 400", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
}

// TestFleetArchiveReloadsIdentical wires a file archive into the fleet,
// runs a cell with both a cleared and a still-open incident, and checks
// the archive reloads to exactly the incidents the mirror holds — the
// persistence acceptance contract.
func TestFleetArchiveReloadsIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incidents.jsonl")
	arch, err := anomaly.OpenArchive(path, anomaly.ArchiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fleet := serve.NewFleet()
	fleet.SetArchive(arch)
	c := newCellFixture(fleet, "fig4/s1c2", 0)
	// Window 2: onset, clears at 5; window 6: second onset, stays open.
	c.play(0.01, 0.02, 5.0, 0.01, 0.02, 0.01, 7.0, 7.5)
	c.reg.Stop()
	c.cell.Finish("done", nil)
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	if arch.Dropped() != 0 {
		t.Fatalf("archive dropped %d records", arch.Dropped())
	}

	want := c.cell.Snapshot().Incidents
	if len(want) != 2 || want[0].Open() || !want[1].Open() {
		t.Fatalf("fixture incidents = %+v, want [cleared, open]", want)
	}

	recs, _, err := anomaly.LoadArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("archive folded to %d incidents, want 2", len(recs))
	}
	for i, rec := range recs {
		if rec.Cell != "fig4/s1c2" || rec.Round != 0 {
			t.Errorf("record %d identity = %s#%d", i, rec.Cell, rec.Round)
		}
		if !reflect.DeepEqual(rec.Incident, want[i]) {
			t.Errorf("incident %d reloaded differently:\ndisk   %+v\nmirror %+v", i, rec.Incident, want[i])
		}
	}
	// Raw stream sanity: the open incident's Finish update rides behind
	// its onset, so severity growth survives the round trip.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := anomaly.ReadArchive(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]int{}
	for _, ev := range raw {
		events[ev.Event]++
	}
	if events[anomaly.EventOnset] != 2 || events[anomaly.EventClear] != 1 || events[anomaly.EventUpdate] != 1 {
		t.Errorf("lifecycle stream = %v, want 2 onsets, 1 clear, 1 update", events)
	}
}

// TestNotifierDelivers: the success path — every record reaches every
// target, in order, with the lifecycle identity intact.
func TestNotifierDelivers(t *testing.T) {
	var got []anomaly.ArchiveRecord
	done := make(chan struct{}, 16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var rec anomaly.ArchiveRecord
		if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
			t.Errorf("webhook body does not parse: %v", err)
		}
		got = append(got, rec) // serial: one delivery goroutine
		done <- struct{}{}
	}))
	defer srv.Close()

	n := serve.NewNotifier([]string{srv.URL}, serve.NotifierConfig{})
	n.Record(anomaly.ArchiveRecord{Cell: "c0", Event: anomaly.EventOnset,
		Incident: anomaly.Incident{Resource: "umc0/rd", ClearWindow: -1, Severity: 5}})
	n.Record(anomaly.ArchiveRecord{Cell: "c0", Event: anomaly.EventClear,
		Incident: anomaly.Incident{Resource: "umc0/rd", ClearWindow: 4, Severity: 5.5}})
	<-done
	<-done
	n.Close()
	if n.Delivered() != 2 || n.Dropped() != 0 || n.Retries() != 0 {
		t.Fatalf("delivered %d dropped %d retries %d, want 2/0/0", n.Delivered(), n.Dropped(), n.Retries())
	}
	if len(got) != 2 || got[0].Event != anomaly.EventOnset || got[1].Event != anomaly.EventClear {
		t.Fatalf("webhook received %+v, want onset then clear", got)
	}
	if got[1].Incident.Resource != "umc0/rd" || got[1].Incident.Severity != 5.5 {
		t.Errorf("clear payload = %+v", got[1].Incident)
	}
}

// TestNotifierRetryBackoffDrop: a failing target exhausts its bounded
// retry budget, increments the drop counter, and never blocks Record —
// even against a stalled server.
func TestNotifierRetryBackoffDrop(t *testing.T) {
	var hits atomic.Int64
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no", http.StatusInternalServerError)
	}))
	defer failing.Close()

	n := serve.NewNotifier([]string{failing.URL}, serve.NotifierConfig{
		Retries: 2, Backoff: time.Millisecond, Timeout: time.Second,
	})
	n.Record(anomaly.ArchiveRecord{Event: anomaly.EventOnset, Incident: anomaly.Incident{ClearWindow: -1}})
	n.Close() // drains: the record runs its full retry budget
	if got := hits.Load(); got != 3 {
		t.Errorf("failing target hit %d times, want 3 (first + 2 retries)", got)
	}
	if n.Delivered() != 0 || n.Dropped() != 1 || n.Retries() != 2 {
		t.Errorf("delivered %d dropped %d retries %d, want 0/1/2",
			n.Delivered(), n.Dropped(), n.Retries())
	}

	// A stalled target must not block the harvest tick: Record returns
	// immediately, overflow beyond the queue is dropped and counted.
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer stalled.Close()
	n2 := serve.NewNotifier([]string{stalled.URL}, serve.NotifierConfig{
		Retries: -1, Backoff: time.Millisecond, Timeout: 30 * time.Second, QueueCap: 2,
	})
	const sent = 20
	start := time.Now()
	for i := 0; i < sent; i++ {
		n2.Record(anomaly.ArchiveRecord{Event: anomaly.EventUpdate, Incident: anomaly.Incident{ID: i, ClearWindow: -1}})
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Record blocked %v against a stalled webhook", took)
	}
	// Queue cap 2 + at most one in flight: nearly everything dropped.
	if d := n2.Dropped(); d < sent-3 {
		t.Errorf("dropped %d of %d against a full queue, want >= %d", d, sent, sent-3)
	}
	close(release)
	n2.Close()
}

// TestMetricsServiceCounters: the pipeline's own counters ride the
// /metrics exposition ahead of the # EOF terminator.
func TestMetricsServiceCounters(t *testing.T) {
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer hook.Close()
	arch := anomaly.NewArchive(new(strings.Builder))
	fleet := serve.NewFleet()
	fleet.SetArchive(arch)
	notifier := serve.NewNotifier([]string{hook.URL}, serve.NotifierConfig{})
	defer notifier.Close()
	fleet.SetNotifier(notifier)

	srv := httptest.NewServer(fleet.Handler())
	defer srv.Close()

	// Empty fleet: service counters still exposed, exposition valid.
	om, _ := get(t, srv, "/metrics")
	for _, want := range []string{
		"# TYPE chipletserve_archive_records counter",
		"chipletserve_archive_records_total 0",
		"chipletserve_webhook_delivered_total 0",
		"chipletserve_webhook_dropped_total 0",
		"chipletserve_history_dropped_total 0",
	} {
		if !strings.Contains(om, want) {
			t.Errorf("empty-fleet exposition missing %q:\n%s", want, om)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(om), "# EOF") {
		t.Error("exposition missing # EOF terminator")
	}

	c := newCellFixture(fleet, "cell0", 0)
	c.play(0.01, 5.0, 5.5, 0.01, 0.02)
	c.reg.Stop()
	c.cell.Finish("done", nil)

	om, _ = get(t, srv, "/metrics")
	if !strings.Contains(om, "chipletserve_archive_records_total 2") {
		t.Errorf("archive counter did not advance (want 2 records: onset + clear):\n%s", om)
	}
	if i, j := strings.Index(om, "chipletserve_archive_records_total"), strings.Index(om, "# EOF"); i < 0 || j < 0 || i > j {
		t.Errorf("service counters must precede # EOF (at %d vs %d)", i, j)
	}
	// Cell samples still present alongside the service families.
	if !strings.Contains(om, `cell="cell0"`) {
		t.Errorf("cell samples missing from mixed exposition:\n%s", om)
	}
}
