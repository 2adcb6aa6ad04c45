// Package serve is the fleet scrape service: the live, concurrent read
// side of the observability stack. Registries and monitors are
// engine-local and single-goroutine by design — nothing in internal/
// metrics or internal/anomaly takes a lock — so this package bridges
// them to HTTP with a mirror: each experiment cell's OnHarvest hook
// copies the freshly recorded window (and any new or still-open
// incidents) into a mutex-guarded snapshot on the cell's own goroutine,
// and the HTTP handlers read deep copies under the same lock. The
// simulation never blocks on a scrape and a scrape never reads a
// half-written window.
//
// A Fleet aggregates many cells — the parallel sweep cells of Figure 4
// or Figure 5 — behind one endpoint set: Prometheus-style OpenMetrics
// exposition (per-cell samples labeled cell="name"), the incidents JSON
// feed, per-window bottleneck tables, cross-cell incident correlation,
// and a cell status list.
//
// Beyond live scraping, the fleet is the head of the incident lifecycle
// pipeline: every incident transition a cell mirrors — onset, natural
// clear, end-of-run update, synthetic clear at a -loop reset — fans out
// as an anomaly.ArchiveRecord to the fleet's attached sinks: the
// always-present in-memory History (feeding /correlate across rounds),
// an optional persistent JSONL archive, and an optional webhook
// Notifier. Sinks attach before cells (Fleet.Attach / SetArchive /
// SetNotifier, then Add); each cell captures the sink set at Add time so
// the record path takes no fleet lock.
package serve

import (
	"sync"

	"repro/internal/anomaly"
	"repro/internal/metrics"
)

// DefaultMaxWindows bounds the windows a cell mirror retains; older
// windows age out exactly like the registry's own ring.
const DefaultMaxWindows = 4096

// DefaultHistory bounds the fleet's in-memory lifecycle record history.
const DefaultHistory = 16384

// Cell mirrors one experiment cell for concurrent scraping. Build it
// with Fleet.Add (or AddStatic for an already-finished series) and
// install the mirror with Observe before the cell's registry starts.
type Cell struct {
	name  string
	max   int
	sinks []anomaly.Sink // captured at Add; lifecycle events fan out here

	mu        sync.Mutex
	round     int
	dump      *metrics.Dump // grown one window per harvest; nil until the first
	incidents []anomaly.Incident
	openIdx   []int // incidents indices still open, refreshed each harvest
	done      bool
	err       string
	result    string

	reg *metrics.Registry
	mon *anomaly.Monitor
}

// Name reports the cell's fleet-unique name.
func (c *Cell) Name() string { return c.name }

// Round reports the cell's -loop round (0 before any Reset).
func (c *Cell) Round() int { c.mu.Lock(); defer c.mu.Unlock(); return c.round }

// Observe installs the cell's mirror on reg's harvest hook. Call it
// after anomaly.Attach (observers run in attach order, and the mirror
// wants each window's incidents already detected when it snapshots) and
// before reg.Start. mon may be nil for an unmonitored cell.
func (c *Cell) Observe(reg *metrics.Registry, mon *anomaly.Monitor) {
	c.reg = reg
	c.mon = mon
	reg.OnHarvest(c.mirror)
}

// record fans one lifecycle event out to the cell's sinks. Called with
// c.mu held; sinks synchronize internally and never call back into the
// cell, so there is no lock-order hazard. Sinks are expected not to
// block (the file archive's write is the slowest allowed step).
func (c *Cell) record(event string, in anomaly.Incident) {
	if len(c.sinks) == 0 {
		return
	}
	rec := anomaly.ArchiveRecord{Cell: c.name, Round: c.round, Event: event, Incident: in}
	for _, s := range c.sinks {
		s.Record(rec)
	}
}

// mirror runs on the cell's engine goroutine after each harvested
// window: copy the new window's samples and catch up on incidents.
func (c *Cell) mirror() {
	w := c.reg.Total() - 1
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dump == nil {
		c.dump = &metrics.Dump{
			WindowPS:    int64(c.reg.Window()),
			First:       w,
			Instruments: make([]metrics.InstrumentDump, c.reg.NumInstruments()),
		}
		for i := range c.dump.Instruments {
			d := c.reg.Desc(i)
			c.dump.Instruments[i] = metrics.InstrumentDump{
				Resource: d.Resource, Metric: d.Metric,
				Family: d.Family, Unit: d.Unit, Kind: d.Kind.String(),
			}
		}
	}
	c.dump.StartsPS = append(c.dump.StartsPS, int64(c.reg.WindowStart(w)))
	c.dump.EndsPS = append(c.dump.EndsPS, int64(c.reg.WindowEnd(w)))
	for i := range c.dump.Instruments {
		c.dump.Instruments[i].Samples = append(c.dump.Instruments[i].Samples, c.reg.Value(metrics.ID(i), w))
	}
	if n := len(c.dump.StartsPS); n > c.max {
		cut := n - c.max
		c.dump.StartsPS = c.dump.StartsPS[cut:]
		c.dump.EndsPS = c.dump.EndsPS[cut:]
		for i := range c.dump.Instruments {
			c.dump.Instruments[i].Samples = c.dump.Instruments[i].Samples[cut:]
		}
		c.dump.First += cut
		c.dump.Dropped += cut
	}
	if c.mon == nil {
		return
	}
	// Refresh mirrored incidents that were open last time (severity grows
	// and clears happen in place), then append the new ones. A refresh
	// that observes the incident closed is the clear transition — the one
	// moment the detector's final record exists — so it records here.
	still := c.openIdx[:0]
	for _, i := range c.openIdx {
		c.incidents[i] = c.mon.Incident(i)
		if c.incidents[i].Open() {
			still = append(still, i)
		} else {
			c.record(anomaly.EventClear, c.incidents[i])
		}
	}
	c.openIdx = still
	for i := len(c.incidents); i < c.mon.NumIncidents(); i++ {
		in := c.mon.Incident(i)
		c.incidents = append(c.incidents, in)
		if in.Open() {
			c.openIdx = append(c.openIdx, i)
		}
		c.record(anomaly.EventOnset, in)
	}
}

// closeOutLocked stamps a synthetic clear on every still-open mirrored
// incident — the last mirrored window closes them — and records the
// transition. Called with c.mu held, by Reset: a -loop round must never
// leave dangling-open records in the archive behind it.
func (c *Cell) closeOutLocked() {
	for _, i := range c.openIdx {
		in := &c.incidents[i]
		if c.dump != nil && c.dump.Total() > c.dump.FirstWindow() {
			last := c.dump.Total() - 1
			in.ClearWindow = last
			in.ClearEnd = c.dump.WindowEnd(last)
		} else {
			// No mirrored windows to stamp from (reset before the first
			// harvest); the onset window itself is the best close bound.
			in.ClearWindow = in.OnsetWindow
			in.ClearEnd = in.OnsetEnd
		}
		in.SyntheticClear = true
		c.record(anomaly.EventReset, *in)
	}
	c.openIdx = c.openIdx[:0]
}

// Reset clears the mirror for a fresh run of the same cell — the -loop
// mode of cmd/chipletserve, where each round rebuilds engine, registry
// and monitor but the fleet (and the handler serving it) stays. Open
// incidents are not discarded: each is closed with a synthetic
// clear-stamp at the last mirrored window and recorded to the cell's
// sinks, so archives never carry dangling-open records across rounds.
// Call Reset before Observe-ing the new round's registry; scrapes
// between Reset and the first new window see an empty, running cell.
func (c *Cell) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeOutLocked()
	c.round++
	c.dump = nil
	c.incidents = nil
	c.openIdx = nil
	c.done = false
	c.err = ""
	c.result = ""
}

// Finish marks the cell's run complete. result is a one-line summary
// (shown in /cells); err, if non-nil, marks the cell failed. Incidents
// still open stay open in the mirror — congestion that never cleared is
// the finding — but each records a final EventUpdate snapshot so the
// archive holds its end-of-run severity and peak stamps, not the
// onset-time ones.
func (c *Cell) Finish(result string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done = true
	c.result = result
	if err != nil {
		c.err = err.Error()
	}
	for _, i := range c.openIdx {
		c.record(anomaly.EventUpdate, c.incidents[i])
	}
}

// Snapshot is a cell's deep-copied scrape view: safe to read, render
// and serialize with no lock held while the cell keeps harvesting.
type Snapshot struct {
	Name string `json:"name"`
	// Round is the cell's -loop round (0 on the first run).
	Round int `json:"round"`
	// Dump is the mirrored series; nil before the first harvested window.
	Dump      *metrics.Dump      `json:"-"`
	Incidents []anomaly.Incident `json:"-"`
	// Windows and NumIncidents summarize the mirror for the status list.
	Windows      int    `json:"windows"`
	NumIncidents int    `json:"incidents"`
	OpenNow      int    `json:"open_incidents"`
	Done         bool   `json:"done"`
	Err          string `json:"error,omitempty"`
	Result       string `json:"result,omitempty"`
}

// Snapshot deep-copies the cell's current state.
func (c *Cell) Snapshot() Snapshot { return c.snapshot(true) }

// snapshot copies the cell's status and incidents, and its mirrored
// series only when withDump is set: the series is by far the largest
// part (a sample slice per instrument), and only the endpoints that
// render it need the copy.
func (c *Cell) snapshot(withDump bool) Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Name:         c.name,
		Round:        c.round,
		NumIncidents: len(c.incidents),
		OpenNow:      len(c.openIdx),
		Done:         c.done,
		Err:          c.err,
		Result:       c.result,
	}
	if c.dump != nil {
		s.Windows = len(c.dump.StartsPS)
	}
	if c.dump != nil && withDump {
		d := &metrics.Dump{
			WindowPS: c.dump.WindowPS,
			First:    c.dump.First,
			Dropped:  c.dump.Dropped,
			StartsPS: append([]int64(nil), c.dump.StartsPS...),
			EndsPS:   append([]int64(nil), c.dump.EndsPS...),
		}
		d.Instruments = make([]metrics.InstrumentDump, len(c.dump.Instruments))
		for i, in := range c.dump.Instruments {
			in.Samples = append([]float64(nil), in.Samples...)
			d.Instruments[i] = in
		}
		s.Dump = d
	}
	if len(c.incidents) > 0 {
		s.Incidents = make([]anomaly.Incident, len(c.incidents))
		copy(s.Incidents, c.incidents)
		for i := range s.Incidents {
			s.Incidents[i].Bottlenecks = append([]metrics.Bottleneck(nil), s.Incidents[i].Bottlenecks...)
		}
	}
	return s
}

// History is the fleet's bounded in-memory lifecycle record store: the
// raw event stream every cell records, retained across -loop resets, so
// /correlate can compare rounds long after their mirrors were wiped.
// It implements anomaly.Sink.
type History struct {
	mu      sync.Mutex
	recs    []anomaly.ArchiveRecord
	max     int
	dropped int
}

// NewHistory builds a history retaining at most max records (<= 0 means
// DefaultHistory). The oldest records age out first.
func NewHistory(max int) *History {
	if max <= 0 {
		max = DefaultHistory
	}
	return &History{max: max}
}

// Record appends one lifecycle event, dropping the oldest past the cap.
func (h *History) Record(rec anomaly.ArchiveRecord) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.recs) >= h.max {
		cut := len(h.recs) - h.max + 1
		h.recs = append(h.recs[:0], h.recs[cut:]...)
		h.dropped += cut
	}
	h.recs = append(h.recs, rec)
}

// Events copies the retained event stream, append order.
func (h *History) Events() []anomaly.ArchiveRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]anomaly.ArchiveRecord(nil), h.recs...)
}

// Dropped reports events aged out past the retention cap.
func (h *History) Dropped() int { h.mu.Lock(); defer h.mu.Unlock(); return h.dropped }

// Fleet is a set of cells behind one scrape endpoint.
type Fleet struct {
	mu       sync.Mutex
	cells    []*Cell
	sinks    []anomaly.Sink
	hist     *History
	archive  *anomaly.Archive
	notifier *Notifier
}

// NewFleet builds an empty fleet with a DefaultHistory-bounded lifecycle
// history attached.
func NewFleet() *Fleet {
	f := &Fleet{hist: NewHistory(0)}
	f.sinks = append(f.sinks, f.hist)
	return f
}

// History reports the fleet's in-memory lifecycle record store.
func (f *Fleet) History() *History { return f.hist }

// Attach adds a lifecycle sink. Cells capture the sink set when added,
// so attach every sink before the first Add.
func (f *Fleet) Attach(s anomaly.Sink) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sinks = append(f.sinks, s)
}

// SetArchive attaches a persistent JSONL archive sink and exposes its
// totals on /metrics. Call before Add.
func (f *Fleet) SetArchive(a *anomaly.Archive) {
	f.Attach(a)
	f.mu.Lock()
	f.archive = a
	f.mu.Unlock()
}

// SetNotifier attaches a webhook notifier sink and exposes its delivery
// counters on /metrics. Call before Add.
func (f *Fleet) SetNotifier(n *Notifier) {
	f.Attach(n)
	f.mu.Lock()
	f.notifier = n
	f.mu.Unlock()
}

// Add registers a live cell. maxWindows bounds the mirror's retention;
// <= 0 means DefaultMaxWindows.
func (f *Fleet) Add(name string, maxWindows int) *Cell {
	if maxWindows <= 0 {
		maxWindows = DefaultMaxWindows
	}
	f.mu.Lock()
	c := &Cell{name: name, max: maxWindows, sinks: append([]anomaly.Sink(nil), f.sinks...)}
	f.cells = append(f.cells, c)
	f.mu.Unlock()
	return c
}

// AddStatic registers an already-finished series — a dump loaded from
// disk (chipletstat -serve) or a completed in-memory run — as a done
// cell. incidents may be nil. Static incidents feed /correlate through
// the snapshot overlay, not the history.
func (f *Fleet) AddStatic(name string, d *metrics.Dump, incidents []anomaly.Incident) *Cell {
	c := &Cell{name: name, max: DefaultMaxWindows, dump: d, incidents: incidents, done: true}
	for i, in := range incidents {
		if in.Open() {
			c.openIdx = append(c.openIdx, i)
		}
	}
	f.mu.Lock()
	f.cells = append(f.cells, c)
	f.mu.Unlock()
	return c
}

// Snapshots deep-copies every cell, registration order.
func (f *Fleet) Snapshots() []Snapshot { return f.snapshots(true) }

// snapshots copies every cell, registration order; withDump selects
// whether each copy carries the mirrored series (see Cell.snapshot).
func (f *Fleet) snapshots(withDump bool) []Snapshot {
	f.mu.Lock()
	cells := append([]*Cell(nil), f.cells...)
	f.mu.Unlock()
	out := make([]Snapshot, len(cells))
	for i, c := range cells {
		out[i] = c.snapshot(withDump)
	}
	return out
}

// Records folds the fleet's full incident view for correlation: the
// history's lifecycle events (which survive -loop resets) overlaid with
// each cell's current mirrored incidents (whose open entries carry
// fresher severity than their onset event). The result is each
// incident's latest state, first-onset order.
func (f *Fleet) Records() []anomaly.ArchiveRecord {
	evs := f.hist.Events()
	for _, s := range f.snapshots(false) {
		for _, in := range s.Incidents {
			evs = append(evs, anomaly.ArchiveRecord{
				Cell: s.Name, Round: s.Round, Event: anomaly.EventUpdate, Incident: in,
			})
		}
	}
	return anomaly.FoldArchive(evs)
}
