// Series export: the full harvested time series in three formats —
// OpenMetrics text (for anything that scrapes Prometheus exposition),
// JSON (the lossless interchange format cmd/chipletstat re-reads), and
// CSV in long form (one row per window x instrument, ready for pandas or
// gnuplot). Export runs off the simulation's hot path, but the
// OpenMetrics renderer serves every live /metrics scrape, so it is
// append-based and allocation-gated: its allocations per render must not
// grow with the retained window count (TestOpenMetricsAllocsFlat, gated
// in ci.sh).
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/units"
)

// Source is the read side of a harvested series: both the live *Registry
// and a *Dump loaded from JSON implement it, so the reports and exporters
// work identically during a run and offline.
type Source interface {
	// Window is the nominal harvest interval.
	Window() units.Time
	// Total and FirstWindow bound the valid window indices:
	// [FirstWindow, Total).
	Total() int
	FirstWindow() int
	// WindowStart and WindowEnd report window w's actual bounds.
	WindowStart(w int) units.Time
	WindowEnd(w int) units.Time
	// NumInstruments and Desc enumerate the instruments.
	NumInstruments() int
	Desc(i int) Desc
	// Value reports instrument id's sample for window w.
	Value(id ID, w int) float64
}

// InstrumentDump is one instrument's descriptor and live samples.
type InstrumentDump struct {
	Resource string    `json:"resource"`
	Metric   string    `json:"metric"`
	Family   string    `json:"family"`
	Unit     string    `json:"unit"`
	Kind     string    `json:"kind"`
	Samples  []float64 `json:"samples"`
}

// Dump is a self-contained snapshot of a harvested series — the JSON
// interchange form. It implements Source.
type Dump struct {
	// WindowPS is the nominal harvest interval in picoseconds.
	WindowPS int64 `json:"window_ps"`
	// First is the index of the oldest retained window; Samples[i] holds
	// windows First..First+len(Samples)-1.
	First int `json:"first_window"`
	// Dropped counts windows overwritten before the snapshot.
	Dropped int `json:"dropped_windows"`
	// StartsPS and EndsPS are the retained windows' actual bounds.
	StartsPS []int64 `json:"starts_ps"`
	EndsPS   []int64 `json:"ends_ps"`
	// Instruments carry the per-instrument series, in registration order.
	Instruments []InstrumentDump `json:"instruments"`
}

// Dump snapshots the registry's live windows into the interchange form.
func (r *Registry) Dump() *Dump {
	first := r.FirstWindow()
	n := r.Total() - first
	d := &Dump{
		WindowPS: int64(r.window),
		First:    first,
		Dropped:  r.dropped,
		StartsPS: make([]int64, n),
		EndsPS:   make([]int64, n),
	}
	for w := 0; w < n; w++ {
		d.StartsPS[w] = int64(r.WindowStart(first + w))
		d.EndsPS[w] = int64(r.WindowEnd(first + w))
	}
	d.Instruments = make([]InstrumentDump, len(r.descs))
	for i, desc := range r.descs {
		samples := make([]float64, n)
		for w := 0; w < n; w++ {
			samples[w] = r.Value(ID(i), first+w)
		}
		d.Instruments[i] = InstrumentDump{
			Resource: desc.Resource, Metric: desc.Metric,
			Family: desc.Family, Unit: desc.Unit,
			Kind: desc.Kind.String(), Samples: samples,
		}
	}
	return d
}

// Window implements Source.
func (d *Dump) Window() units.Time { return units.Time(d.WindowPS) }

// Total implements Source.
func (d *Dump) Total() int { return d.First + len(d.StartsPS) }

// FirstWindow implements Source.
func (d *Dump) FirstWindow() int { return d.First }

// WindowStart implements Source.
func (d *Dump) WindowStart(w int) units.Time { return units.Time(d.StartsPS[w-d.First]) }

// WindowEnd implements Source.
func (d *Dump) WindowEnd(w int) units.Time { return units.Time(d.EndsPS[w-d.First]) }

// NumInstruments implements Source.
func (d *Dump) NumInstruments() int { return len(d.Instruments) }

// Desc implements Source.
func (d *Dump) Desc(i int) Desc {
	in := d.Instruments[i]
	k, _ := KindFromString(in.Kind)
	return Desc{Resource: in.Resource, Metric: in.Metric, Family: in.Family, Unit: in.Unit, Kind: k}
}

// Value implements Source.
func (d *Dump) Value(id ID, w int) float64 { return d.Instruments[id].Samples[w-d.First] }

// WriteJSON writes the dump as indented JSON.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// ReadJSON loads a dump written by WriteJSON.
func ReadJSON(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("metrics: decoding dump: %w", err)
	}
	if len(d.EndsPS) != len(d.StartsPS) {
		return nil, fmt.Errorf("metrics: dump has %d window starts but %d ends", len(d.StartsPS), len(d.EndsPS))
	}
	for _, in := range d.Instruments {
		if len(in.Samples) != len(d.StartsPS) {
			return nil, fmt.Errorf("metrics: instrument %s/%s has %d samples for %d windows",
				in.Resource, in.Metric, len(in.Samples), len(d.StartsPS))
		}
		if _, ok := KindFromString(in.Kind); !ok {
			return nil, fmt.Errorf("metrics: instrument %s/%s has unknown kind %q", in.Resource, in.Metric, in.Kind)
		}
	}
	return &d, nil
}

// appendSanitizedOM appends s mapped to the OpenMetrics charset: ASCII
// letters, digits and '_' pass through, and every other rune becomes one
// '_'. Ranging over a string decodes each byte of invalid UTF-8 as its
// own U+FFFD, so each such byte also becomes one '_'.
func appendSanitizedOM(dst []byte, s string) []byte {
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			dst = append(dst, byte(c))
		default:
			dst = append(dst, '_')
		}
	}
	return dst
}

// appendOMUnit appends the OpenMetrics unit suffix for an internal unit
// name.
func appendOMUnit(dst []byte, unit string) []byte {
	if unit == "ps" {
		return append(dst, "picoseconds"...)
	}
	return appendSanitizedOM(dst, unit)
}

// omChunk is the exposition's write granularity: lines are appended to
// one reused buffer, which goes to the writer whenever it holds at least
// this many bytes.
const omChunk = 32 << 10

// omTailMax bounds one sample line's tail, " <seconds>\n": a units.Time
// is an int64 of picoseconds, so its %.9f seconds take at most a sign,
// 7 integer digits, the point and 9 decimals.
const omTailMax = 1 + 1 + 7 + 1 + 9 + 1

// WriteOpenMetrics writes the full series as OpenMetrics exposition text:
// one metric family per canonical metric name, one timestamped sample per
// (resource, window). Counters are exported cumulatively (the running sum
// of window deltas since the first retained window) under a _total
// suffix, gauges as-is; timestamps are window ends in simulated seconds.
func WriteOpenMetrics(w io.Writer, s Source) error {
	return WriteOpenMetricsFleet(w, []string{""}, []Source{s})
}

// WriteOpenMetricsFleet writes several harvested series — a fleet of
// parallel experiment cells — as one OpenMetrics exposition. Each metric
// family's TYPE/UNIT header appears exactly once (OpenMetrics forbids
// repeats), with every cell's samples under it carrying a cell="name"
// label; an empty cell name omits the label, which is how the single-cell
// WriteOpenMetrics rides this path. names and cells must be parallel
// slices.
func WriteOpenMetricsFleet(w io.Writer, names []string, cells []Source) error {
	return WriteOpenMetricsFleetWith(w, names, cells, nil)
}

// WriteOpenMetricsFleetWith is WriteOpenMetricsFleet with extra
// exposition lines appended between the cell samples and the # EOF
// terminator — service-level families (webhook delivery counters,
// archive totals) that belong in the same scrape as the fleet's
// simulated metrics. extra must write complete OpenMetrics families
// (TYPE header included) and may be nil.
//
// Each sample line is name{resource="…",family="…"[,cell="…"]} value
// timestamp, with the labels quoted as %q quotes them, the value as %g
// formats it and the timestamp as %.9f seconds. Everything but the value
// repeats, so it is rendered once: a line prefix per member, a
// timestamp per cell window. The inner loop appends prefix, value and
// timestamp to a reused buffer that reaches w in omChunk-sized writes;
// the buffer is flushed before extra runs, so extra's lines land in
// order. Allocations depend on the instrument and cell counts, never on
// the number of windows.
func WriteOpenMetricsFleetWith(w io.Writer, names []string, cells []Source, extra func(io.Writer) error) error {
	if len(names) != len(cells) {
		return fmt.Errorf("metrics: %d cell names for %d sources", len(names), len(cells))
	}
	// Group instruments by metric family across every cell, preserving
	// first-seen order; each member remembers its owning cell.
	type member struct {
		cell int
		id   ID
	}
	type group struct {
		metric  string
		kind    Kind
		unit    string
		members []member
	}
	var groups []*group
	byMetric := map[string]*group{}
	for c, s := range cells {
		for i := 0; i < s.NumInstruments(); i++ {
			d := s.Desc(i)
			g := byMetric[d.Metric]
			if g == nil {
				g = &group{metric: d.Metric, kind: d.Kind, unit: d.Unit}
				byMetric[d.Metric] = g
				groups = append(groups, g)
			}
			g.members = append(g.members, member{cell: c, id: ID(i)})
		}
	}
	// Per-cell text shared by every member: the cell label, and each
	// retained window's line tail " <end seconds>\n" — window
	// FirstWindow()+k's tail is tails[off[k]:off[k+1]].
	type cellText struct {
		label []byte
		tails []byte
		off   []int
	}
	texts := make([]cellText, len(cells))
	for c, s := range cells {
		t := &texts[c]
		if names[c] != "" {
			t.label = strconv.AppendQuote([]byte(",cell="), names[c])
		}
		first, total := s.FirstWindow(), s.Total()
		t.tails = make([]byte, 0, (total-first)*omTailMax)
		t.off = make([]int, 1, total-first+1)
		for win := first; win < total; win++ {
			t.tails = append(t.tails, ' ')
			t.tails = strconv.AppendFloat(t.tails, s.WindowEnd(win).Seconds(), 'f', 9, 64)
			t.tails = append(t.tails, '\n')
			t.off = append(t.off, len(t.tails))
		}
	}

	buf := make([]byte, 0, 2*omChunk)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	var name, prefix []byte
	for _, g := range groups {
		name = appendSanitizedOM(append(name[:0], "chiplet_"...), g.metric)
		kind, suffix := "gauge", ""
		if g.kind == KindCounter {
			kind, suffix = "counter", "_total"
		}
		buf = append(buf, "# TYPE "...)
		buf = append(buf, name...)
		buf = append(buf, ' ')
		buf = append(buf, kind...)
		buf = append(buf, "\n# UNIT "...)
		buf = append(buf, name...)
		buf = append(buf, ' ')
		buf = appendOMUnit(buf, g.unit)
		buf = append(buf, '\n')
		for _, m := range g.members {
			s, t := cells[m.cell], &texts[m.cell]
			d := s.Desc(int(m.id))
			prefix = append(append(prefix[:0], name...), suffix...)
			prefix = append(prefix, "{resource="...)
			prefix = strconv.AppendQuote(prefix, d.Resource)
			prefix = append(prefix, ",family="...)
			prefix = strconv.AppendQuote(prefix, d.Family)
			prefix = append(prefix, t.label...)
			prefix = append(prefix, "} "...)
			first := s.FirstWindow()
			cum := 0.0
			for k := 0; k+1 < len(t.off); k++ {
				v := s.Value(m.id, first+k)
				if g.kind == KindCounter {
					cum += v
					v = cum
				}
				buf = append(buf, prefix...)
				buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
				buf = append(buf, t.tails[t.off[k]:t.off[k+1]]...)
				if len(buf) >= omChunk {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
	}
	if extra != nil {
		if err := flush(); err != nil {
			return err
		}
		if err := extra(w); err != nil {
			return err
		}
	}
	buf = append(buf, "# EOF\n"...)
	return flush()
}

// WriteCSV writes the full series in long form: one row per
// (window, instrument), with window bounds in microseconds of simulated
// time. Counters carry the per-window delta, gauges the sample.
func WriteCSV(w io.Writer, s Source) error {
	if _, err := fmt.Fprintln(w, "window,start_us,end_us,resource,family,metric,kind,unit,value"); err != nil {
		return err
	}
	for win := s.FirstWindow(); win < s.Total(); win++ {
		for i := 0; i < s.NumInstruments(); i++ {
			d := s.Desc(i)
			_, err := fmt.Fprintf(w, "%d,%.3f,%.3f,%s,%s,%s,%s,%s,%g\n",
				win, s.WindowStart(win).Microseconds(), s.WindowEnd(win).Microseconds(),
				d.Resource, d.Family, d.Metric, d.Kind, d.Unit, s.Value(ID(i), win))
			if err != nil {
				return err
			}
		}
	}
	return nil
}
