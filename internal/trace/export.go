// Chrome trace_event JSON export/import. The format is the subset of the
// Trace Event Format that Perfetto and chrome://tracing load: complete
// ("X") duration events with microsecond ts/dur, one thread (track) per
// registered hop, thread names carried by "M" metadata events.
//
// Timestamps are written as float microseconds with the shortest exact
// decimal representation. Simulated times are picosecond integers far
// below 2^53, so the float64 round trip is exact: reading a trace back
// reproduces every span to the picosecond.
//
// A trace may additionally carry one annotation track (thread kind
// "incidents"): incident intervals from the online anomaly detectors
// overlaid on the span timeline, written as complete events carrying
// resource/severity args plus instant onset/clear markers. The fused
// file is the CHIPSIM-style joined view — utilization incidents over the
// activity trace — in a single Perfetto tab.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/units"
)

const psPerMicro = 1e6

// incidentTrackKind marks the annotation track's thread metadata, so
// readers can tell incident intervals from hop spans.
const incidentTrackKind = "incidents"

// maxPS bounds the magnitude of a time or duration ReadTraceEvents
// accepts: 2^50 ps (about 19 simulated minutes) is far beyond any run,
// and below it the picosecond -> float microsecond -> picosecond round
// trip is exact, so a loaded trace re-exports byte-identically.
const maxPS = 1 << 50

// micros renders a picosecond time as exact float microseconds.
func micros(t units.Time) string {
	return strconv.FormatFloat(float64(t)/psPerMicro, 'f', -1, 64)
}

// quote renders s as a JSON string literal. On printable ASCII other
// than <, > and & — every name the simulator registers — it writes what
// strconv.Quote writes; unlike Quote it stays valid JSON for any name a
// loaded file carried (control characters, non-BMP runes).
func quote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// Annotation is one incident marker on the export's annotation track: an
// interval [Start, End) named for the congested resource, carrying the
// detector's verdict as args. Open annotations (incidents that never
// cleared) extend to the timeline edge and write no clear marker.
type Annotation struct {
	// Name labels the interval in the timeline (the incident's resource,
	// e.g. "umc0/rd"); Resource repeats it in the event args so tooltips
	// carry it even when the UI elides names.
	Name     string     `json:"name"`
	Start    units.Time `json:"start_ps"`
	End      units.Time `json:"end_ps"`
	Open     bool       `json:"open,omitempty"`
	Severity float64    `json:"severity"`
	Baseline float64    `json:"baseline"`
	Detector string     `json:"detector"`
}

// writeTraceEvents is the shared exporter: hop metadata, every span, and
// (when anns is non-empty) the incident annotation track.
func writeTraceEvents(w io.Writer, hops []Hop, each func(func(Span)), anns []Annotation) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	bw.WriteString("\n")
	fmt.Fprintf(bw, `{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"chiplet-net"}}`)
	for i, h := range hops {
		fmt.Fprintf(bw, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s,\"kind\":%q}}",
			i+1, quote(h.Name), h.Kind.String())
	}
	annTid := len(hops) + 1
	if len(anns) > 0 {
		fmt.Fprintf(bw, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"incidents\",\"kind\":%q}}",
			annTid, incidentTrackKind)
	}
	each(func(s Span) {
		fmt.Fprintf(bw, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%q,\"args\":{\"txn\":%d}}",
			int(s.Hop)+1, micros(s.Start), micros(s.Duration()), s.Cause.String(), s.Txn)
	})
	for _, a := range anns {
		fmt.Fprintf(bw, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%s,"+
			"\"args\":{\"resource\":%s,\"severity\":%g,\"baseline\":%g,\"detector\":%s,\"open\":%v}}",
			annTid, micros(a.Start), micros(a.End-a.Start), quote(a.Name),
			quote(a.Name), a.Severity, a.Baseline, quote(a.Detector), a.Open)
		fmt.Fprintf(bw, ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"name\":%s,\"args\":{\"resource\":%s,\"severity\":%g}}",
			annTid, micros(a.Start), quote("onset "+a.Name), quote(a.Name), a.Severity)
		if !a.Open {
			fmt.Fprintf(bw, ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"name\":%s,\"args\":{\"resource\":%s,\"severity\":%g}}",
				annTid, micros(a.End), quote("clear "+a.Name), quote(a.Name), a.Severity)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteTraceEvents streams the span ring as Chrome trace_event JSON:
// one process, one track per hop (tid = hop id + 1), one complete event
// per span named by its cause, with the transaction id in args.
func (t *Tracer) WriteTraceEvents(w io.Writer) error {
	return writeTraceEvents(w, t.hops, t.EachSpan, nil)
}

// WriteTraceEventsAnnotated is WriteTraceEvents plus an incident
// annotation track: each annotation becomes a complete event on the
// "incidents" thread (onset/clear instant markers included), overlaid on
// the span timeline in the same file. anomaly.FusedTraceEvents builds
// the annotations from a monitor's incident list.
func (t *Tracer) WriteTraceEventsAnnotated(w io.Writer, anns []Annotation) error {
	return writeTraceEvents(w, t.hops, t.EachSpan, anns)
}

// Loaded is a trace read back from trace_event JSON: the hop registry
// reconstructed from track metadata, every span, and any incident
// annotations the file carried.
type Loaded struct {
	Hops        []Hop
	Spans       []Span
	Annotations []Annotation
}

// WriteTraceEvents re-exports the loaded trace (with its annotations),
// so offline tools can rewrite a trace file — chiplettrace -incidents
// fuses a saved incident feed into a recorded trace this way.
func (l *Loaded) WriteTraceEvents(w io.Writer) error {
	return writeTraceEvents(w, l.Hops, func(fn func(Span)) {
		for _, s := range l.Spans {
			fn(s)
		}
	}, l.Annotations)
}

// ReadTraceEvents parses trace_event JSON produced by WriteTraceEvents.
// Unknown event phases are skipped so hand-edited traces still load;
// span events with unknown cause names or tracks are an error, and so
// are track ids outside [0, number of events] and times beyond maxPS —
// hostile input fails to load instead of panicking or allocating without
// bound. Events on a track whose metadata kind is "incidents" are parsed
// as annotations, not spans.
func ReadTraceEvents(r io.Reader) (*Loaded, error) {
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Name string  `json:"name"`
			Args struct {
				Name     string  `json:"name"`
				Kind     string  `json:"kind"`
				Txn      uint64  `json:"txn"`
				Resource string  `json:"resource"`
				Severity float64 `json:"severity"`
				Baseline float64 `json:"baseline"`
				Detector string  `json:"detector"`
				Open     bool    `json:"open"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: parse trace_event JSON: %w", err)
	}
	ld := &Loaded{}
	annTids := map[int]bool{}
	hop := func(tid int) (HopID, error) {
		id := tid - 1
		if id < 0 || id >= len(ld.Hops) {
			return 0, fmt.Errorf("trace: event on unregistered track tid=%d", tid)
		}
		return HopID(id), nil
	}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" || ev.Tid == 0 {
				continue
			}
			if ev.Tid < 0 || ev.Tid > len(doc.TraceEvents) {
				return nil, fmt.Errorf("trace: track metadata tid=%d outside [1,%d]", ev.Tid, len(doc.TraceEvents))
			}
			if ev.Args.Kind == incidentTrackKind {
				annTids[ev.Tid] = true
				continue
			}
			for len(ld.Hops) < ev.Tid {
				ld.Hops = append(ld.Hops, Hop{})
			}
			h := &ld.Hops[ev.Tid-1]
			h.Name = ev.Args.Name
			if k, ok := KindFromString(ev.Args.Kind); ok {
				h.Kind = k
			}
		case "X":
			ts, dur := math.Round(ev.Ts*psPerMicro), math.Round(ev.Dur*psPerMicro)
			if math.Abs(ts) > maxPS || math.Abs(dur) > maxPS {
				return nil, fmt.Errorf("trace: event time ts=%gus dur=%gus beyond %d ps", ev.Ts, ev.Dur, int64(maxPS))
			}
			start := units.Time(ts)
			if annTids[ev.Tid] {
				ld.Annotations = append(ld.Annotations, Annotation{
					Name:     ev.Name,
					Start:    start,
					End:      start + units.Time(dur),
					Open:     ev.Args.Open,
					Severity: ev.Args.Severity,
					Baseline: ev.Args.Baseline,
					Detector: ev.Args.Detector,
				})
				continue
			}
			cause, ok := CauseFromString(ev.Name)
			if !ok {
				return nil, fmt.Errorf("trace: unknown span cause %q", ev.Name)
			}
			id, err := hop(ev.Tid)
			if err != nil {
				return nil, err
			}
			ld.Spans = append(ld.Spans, Span{
				Txn:   ev.Args.Txn,
				Start: start,
				End:   start + units.Time(dur),
				Hop:   id,
				Cause: cause,
			})
		}
	}
	sort.SliceStable(ld.Spans, func(i, j int) bool { return ld.Spans[i].Start < ld.Spans[j].Start })
	return ld, nil
}

// SpansInWindow reports the loaded spans overlapping [start, end) — the
// offline counterpart of Tracer.SpansInWindow, so a trace on disk can be
// fused with a metrics window after the run (chiplettrace -from/-to).
func (l *Loaded) SpansInWindow(start, end units.Time) []Span {
	var out []Span
	for _, s := range l.Spans {
		if s.Start >= end {
			break // spans are sorted by start; nothing later can overlap
		}
		if s.End > start {
			out = append(out, s)
		}
	}
	return out
}

// Window restricts the loaded trace to the spans overlapping [start, end),
// keeping the hop registry and annotations, so every Loaded report works
// on one harvest window's slice of the flight.
func (l *Loaded) Window(start, end units.Time) *Loaded {
	return &Loaded{Hops: l.Hops, Spans: l.SpansInWindow(start, end), Annotations: l.Annotations}
}
