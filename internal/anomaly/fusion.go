// Trace-metrics fusion: joining an incident's anomalous window with the
// flight recorder's spans. The metrics registry knows which window went
// wrong and the bottleneck attributor names the resource; the tracer
// knows every hop every transaction took. Keying trace.SpansInWindow off
// the incident's window stamps turns "umc0/rd saturated in window 41"
// into the cause-attributed spans of the transactions that crossed it.
package anomaly

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/trace"
	"repro/internal/units"
)

// FusedIncident is an incident joined with the spans recorded during its
// onset window.
type FusedIncident struct {
	Incident Incident
	// Start and End are the fused window's bounds (the onset window).
	Start, End units.Time
	// Spans are the live spans overlapping [Start, End), oldest-first.
	Spans []trace.Span
	// Txns are the transactions in flight during the window.
	Txns []trace.TxnRecord
}

// Annotations converts incidents to trace annotation-track entries: one
// interval per incident from its onset window's start to its clear stamp
// (open incidents extend to timelineEnd, clamped to at least the onset
// window). The exporter adds instant onset/clear markers per entry.
func Annotations(incs []Incident, timelineEnd units.Time) []trace.Annotation {
	anns := make([]trace.Annotation, 0, len(incs))
	for _, in := range incs {
		end := in.ClearEnd
		if in.Open() {
			end = timelineEnd
			if end < in.OnsetEnd {
				end = in.OnsetEnd
			}
		}
		anns = append(anns, trace.Annotation{
			Name:     in.Resource,
			Start:    in.OnsetStart,
			End:      end,
			Open:     in.Open(),
			Severity: in.Severity,
			Baseline: in.Baseline,
			Detector: in.Detector,
		})
	}
	return anns
}

// WriteFusedTraceEvents writes one Chrome-trace file holding both halves
// of the fused view: the tracer's span timeline plus the incidents as an
// annotation track (onset/clear markers with resource and severity
// args). Open at https://ui.perfetto.dev — the incident intervals sit
// over the spans of the transactions that crossed the congested
// resource. The tracer and the incidents' registry must share one engine
// clock (harness.Figure4Cell with both observers wires exactly that).
func WriteFusedTraceEvents(w io.Writer, tr *trace.Tracer, incs []Incident) error {
	var end units.Time
	if _, last, ok := tr.TimeRange(); ok {
		end = last
	}
	return tr.WriteTraceEventsAnnotated(w, Annotations(incs, end))
}

// Fuse joins an incident with the tracer's view of its onset window:
// exactly the spans and transaction records overlapping the window's
// [start, end) stamps. The tracer must cover the incident's interval
// (same cell, recording while the window was harvested); spans the ring
// has overwritten are gone, as usual.
func Fuse(in Incident, tr *trace.Tracer) FusedIncident {
	return FuseWindow(in, in.OnsetStart, in.OnsetEnd, tr)
}

// FuseWindow is Fuse over an arbitrary window [start, end) — any harvest
// window an open incident spans, not just the onset.
func FuseWindow(in Incident, start, end units.Time, tr *trace.Tracer) FusedIncident {
	f := FusedIncident{Incident: in, Start: start, End: end}
	tr.SpansInWindow(start, end, func(s trace.Span) { f.Spans = append(f.Spans, s) })
	tr.TxnsInWindow(start, end, func(r trace.TxnRecord) { f.Txns = append(f.Txns, r) })
	return f
}

// Render summarizes the fused view: the incident line, then the window's
// span population grouped by hop and cause, congested-resource first.
func (f FusedIncident) Render(hops []trace.Hop, top int) string {
	var b strings.Builder
	b.WriteString(RenderIncident(f.Incident))
	b.WriteString("\n")
	fmt.Fprintf(&b, "fused window [%v,%v): %d spans, %d transactions in flight\n",
		f.Start, f.End, len(f.Spans), len(f.Txns))
	type key struct {
		hop   trace.HopID
		cause trace.Cause
	}
	agg := map[key]units.Time{}
	for _, s := range f.Spans {
		// Clip to the window so the per-cell totals describe the window
		// itself, not span tails outside it.
		from, to := s.Start, s.End
		if from < f.Start {
			from = f.Start
		}
		if to > f.End {
			to = f.End
		}
		agg[key{s.Hop, s.Cause}] += to - from
	}
	type row struct {
		label string
		d     units.Time
	}
	rows := make([]row, 0, len(agg))
	for k, d := range agg {
		name := fmt.Sprintf("hop%d", k.hop)
		if int(k.hop) < len(hops) {
			name = hops[k.hop].Name
		}
		rows = append(rows, row{fmt.Sprintf("%s %s", k.cause, name), d})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].d != rows[j].d {
			return rows[i].d > rows[j].d
		}
		return rows[i].label < rows[j].label
	})
	for i, r := range rows {
		if i >= top {
			fmt.Fprintf(&b, "  (%d more hop x cause cells)\n", len(rows)-top)
			break
		}
		fmt.Fprintf(&b, "  %-40s %v\n", r.label, r.d)
	}
	return b.String()
}
