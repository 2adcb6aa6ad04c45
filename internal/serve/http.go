// The fleet's HTTP surface. Every handler works from deep-copied cell
// snapshots, so rendering — which can be slow for a big fleet — holds no
// cell lock. Only /metrics and /bottlenecks render series, so only they
// copy the mirrored series; the rest copy status and incidents.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/anomaly"
	"repro/internal/anomaly/correlate"
	"repro/internal/metrics"
)

// openMetricsContentType is the exposition content type Prometheus
// negotiates for OpenMetrics 1.0.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// CellIncident is one incident tagged with its owning cell — the
// /incidents wire form.
type CellIncident struct {
	Cell string `json:"cell"`
	anomaly.Incident
}

// Handler serves the fleet:
//
//	/            index (text)
//	/metrics     OpenMetrics exposition, one cell label per cell
//	/incidents   incidents JSON feed (?cell= filters, ?open=1 only open)
//	/bottlenecks per-window bottleneck table (?cell=, ?window=, ?top=)
//	/correlate   cross-cell saturation order (?resource=, ?top=, ?format=json)
//	/cells       cell status JSON
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", f.handleIndex)
	mux.HandleFunc("/metrics", f.handleMetrics)
	mux.HandleFunc("/incidents", f.handleIncidents)
	mux.HandleFunc("/bottlenecks", f.handleBottlenecks)
	mux.HandleFunc("/correlate", f.handleCorrelate)
	mux.HandleFunc("/cells", f.handleCells)
	return mux
}

func (f *Fleet) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "chiplet fleet scrape service")
	fmt.Fprintln(w, "  /metrics      OpenMetrics exposition")
	fmt.Fprintln(w, "  /incidents    incidents JSON (?cell=NAME&open=1)")
	fmt.Fprintln(w, "  /bottlenecks  bottleneck table (?cell=NAME&window=N&top=K)")
	fmt.Fprintln(w, "  /correlate    cross-cell saturation order (?resource=NAME&top=K&format=json)")
	fmt.Fprintln(w, "  /cells        cell status JSON")
	fmt.Fprintln(w, "cells:")
	for _, s := range f.snapshots(false) {
		state := "running"
		if s.Done {
			state = "done"
			if s.Err != "" {
				state = "failed"
			}
		}
		fmt.Fprintf(w, "  %-20s %s, %d windows, %d incidents (%d open)\n",
			s.Name, state, s.Windows, s.NumIncidents, s.OpenNow)
	}
}

func (f *Fleet) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var names []string
	var cells []metrics.Source
	for _, s := range f.Snapshots() {
		if s.Dump == nil {
			continue // nothing harvested yet
		}
		names = append(names, s.Name)
		cells = append(cells, s.Dump)
	}
	w.Header().Set("Content-Type", openMetricsContentType)
	if len(cells) == 0 {
		f.writeServiceMetrics(w)
		fmt.Fprintln(w, "# EOF")
		return
	}
	err := metrics.WriteOpenMetricsFleetWith(w, names, cells, func(w io.Writer) error {
		f.writeServiceMetrics(w)
		return nil
	})
	if err != nil {
		// Headers are gone; nothing to do but note it mid-stream.
		fmt.Fprintf(w, "# exposition aborted: %v\n", err)
	}
}

// writeServiceMetrics appends the pipeline's own counters to the scrape:
// webhook delivery/drop totals and archive append totals. The drop
// counters are the operator's alert-loss and history-loss signals.
func (f *Fleet) writeServiceMetrics(w io.Writer) {
	f.mu.Lock()
	notifier, archive := f.notifier, f.archive
	f.mu.Unlock()
	counter := func(name string, v uint64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s_total %d\n", name, name, v)
	}
	if notifier != nil {
		counter("chipletserve_webhook_delivered", notifier.Delivered())
		counter("chipletserve_webhook_retries", notifier.Retries())
		counter("chipletserve_webhook_dropped", notifier.Dropped())
	}
	if archive != nil {
		counter("chipletserve_archive_records", uint64(archive.Records()))
		counter("chipletserve_archive_rotations", uint64(archive.Rotations()))
		counter("chipletserve_archive_dropped", uint64(archive.Dropped()))
	}
	counter("chipletserve_history_dropped", uint64(f.hist.Dropped()))
}

// handleCorrelate serves the cross-cell saturation-order report over the
// fleet's folded incident view (history plus live mirrors): text by
// default, JSON with ?format=json; ?resource= substring-filters the
// series, ?top= bounds them.
func (f *Fleet) handleCorrelate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	top := 0
	if s := q.Get("top"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			http.Error(w, fmt.Sprintf("bad top=%q", s), http.StatusBadRequest)
			return
		}
		top = v
	}
	series := correlate.Filter(correlate.Correlate(f.Records()), q.Get("resource"))
	switch q.Get("format") {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, correlate.Render(series, top))
	case "json":
		if top > 0 && top < len(series) {
			series = series[:top]
		}
		w.Header().Set("Content-Type", "application/json")
		correlate.WriteJSON(w, series)
	default:
		http.Error(w, fmt.Sprintf("bad format=%q; choose text or json", q.Get("format")), http.StatusBadRequest)
	}
}

func (f *Fleet) handleIncidents(w http.ResponseWriter, r *http.Request) {
	cell := r.URL.Query().Get("cell")
	openOnly := r.URL.Query().Get("open") == "1"
	out := []CellIncident{}
	for _, s := range f.snapshots(false) {
		if cell != "" && s.Name != cell {
			continue
		}
		for _, in := range s.Incidents {
			if openOnly && !in.Open() {
				continue
			}
			out = append(out, CellIncident{Cell: s.Name, Incident: in})
		}
	}
	// Across cells, order by onset time then cell for a stable feed.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].OnsetStart != out[j].OnsetStart {
			return out[i].OnsetStart < out[j].OnsetStart
		}
		return out[i].Cell < out[j].Cell
	})
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(out)
}

func (f *Fleet) handleBottlenecks(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	top := 10
	if s := q.Get("top"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			http.Error(w, fmt.Sprintf("bad top=%q", s), http.StatusBadRequest)
			return
		}
		top = v
	}
	cell := q.Get("cell")
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	served := 0
	for _, s := range f.Snapshots() {
		if cell != "" && s.Name != cell {
			continue
		}
		served++
		if s.Dump == nil || s.Windows == 0 {
			fmt.Fprintf(w, "== cell %s: no windows harvested yet\n", s.Name)
			continue
		}
		fmt.Fprintf(w, "== cell %s\n", s.Name)
		if ws := q.Get("window"); ws != "" {
			win, err := strconv.Atoi(ws)
			if err != nil || win < s.Dump.FirstWindow() || win >= s.Dump.Total() {
				fmt.Fprintf(w, "window %q out of range [%d, %d)\n", ws, s.Dump.FirstWindow(), s.Dump.Total())
				continue
			}
			fmt.Fprint(w, metrics.RenderWindow(s.Dump, win, top))
		} else {
			fmt.Fprint(w, metrics.BottleneckReport(s.Dump, top))
		}
	}
	if cell != "" && served == 0 {
		fmt.Fprintf(w, "no cell %q\n", cell)
	}
}

func (f *Fleet) handleCells(w http.ResponseWriter, r *http.Request) {
	snaps := f.snapshots(false)
	if snaps == nil {
		snaps = []Snapshot{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(snaps)
}
