// Persistent incident archive: an append-only JSONL sink recording the
// lifecycle of every incident — onset, natural clear, end-of-run update,
// synthetic clear at a -loop round reset — so incidents survive the
// process that detected them and runs of different configs become
// durable, comparable artifacts (the capacity-planning question "which
// configs saturate umc0 first?" is a query over this file).
//
// The wire form is one JSON object per line, each a complete snapshot of
// the incident at that lifecycle event. A record's (cell, round,
// incident id) key identifies the incident across events; the loader
// folds the event stream to the latest state per key, so reloading an
// archive reproduces exactly the incident list the serving mirror held.
//
// The append path follows the repository's hot-path discipline even
// though incidents are rare: records are encoded into a reused buffer by
// a hand-rolled marshaller (byte-compatible with encoding/json's reading
// of ArchiveRecord), so Record performs no allocations in steady state —
// attaching an archive adds no allocation inside the harvest tick, and
// ci.sh gates BenchmarkArchiveAppend at 0 allocs/op. Rotation (rename to
// path.1, path.2, ... up to MaxFiles) happens between records, never
// mid-line, so every file in the rotated set is valid JSONL on its own.
package anomaly

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"

	"repro/internal/metrics"
)

// Lifecycle events an ArchiveRecord can carry.
const (
	// EventOnset is appended when an incident opens.
	EventOnset = "onset"
	// EventClear is appended when the detector closes an incident.
	EventClear = "clear"
	// EventUpdate is appended at the end of a run for incidents still
	// open, capturing their final severity/peak state.
	EventUpdate = "update"
	// EventReset is appended when a serving-mirror reset closes an open
	// incident with a synthetic clear stamp (Incident.SyntheticClear).
	EventReset = "reset"
)

// ArchiveRecord is one incident lifecycle event: the owning cell and
// -loop round, the event kind, and the incident's full state at that
// moment.
type ArchiveRecord struct {
	Cell     string   `json:"cell,omitempty"`
	Round    int      `json:"round,omitempty"`
	Event    string   `json:"event,omitempty"`
	Incident Incident `json:"incident"`
}

// Key identifies the record's incident across lifecycle events.
func (r ArchiveRecord) Key() ArchiveKey {
	return ArchiveKey{Cell: r.Cell, Round: r.Round, ID: r.Incident.ID}
}

// ArchiveKey is the (cell, round, incident id) identity of one incident.
type ArchiveKey struct {
	Cell  string
	Round int
	ID    int
}

// Sink consumes incident lifecycle records: the file archive, the serving
// fleet's in-memory history, a webhook notifier. Record must not block
// the caller's harvest tick and must be safe for concurrent use — cells
// of a fleet record from their own engine goroutines.
type Sink interface {
	Record(rec ArchiveRecord)
}

// ArchiveConfig tunes the file archive's rotation.
type ArchiveConfig struct {
	// MaxBytes rotates the current file when appending a record would
	// grow it past this size; default 8 MiB. <0 disables rotation.
	MaxBytes int64
	// MaxFiles bounds the rotated set (path, path.1 .. path.N-1);
	// default 4. The oldest file is deleted when the set is full.
	MaxFiles int
}

func (c ArchiveConfig) withDefaults() ArchiveConfig {
	if c.MaxBytes == 0 {
		c.MaxBytes = 8 << 20
	}
	if c.MaxFiles <= 0 {
		c.MaxFiles = 4
	}
	return c
}

// Archive is the append-only JSONL sink. Build a file-backed one with
// OpenArchive (rotating), or wrap any writer with NewArchive (no
// rotation). Write errors are latched — the first is kept, later records
// are dropped and counted — so the harvest path never handles errors.
type Archive struct {
	mu   sync.Mutex
	w    io.Writer // current destination (the file when path != "")
	path string
	cfg  ArchiveConfig

	buf       []byte // reused encode buffer; Record is alloc-free once warm
	size      int64  // bytes written to the current file
	records   int
	rotations int
	dropped   int
	err       error
}

// NewArchive wraps w as a non-rotating archive — the in-memory/test form.
func NewArchive(w io.Writer) *Archive {
	return &Archive{w: w, cfg: ArchiveConfig{}.withDefaults(), buf: make([]byte, 0, 4096)}
}

// OpenArchive opens (creating or appending to) the JSONL archive at path.
func OpenArchive(path string, cfg ArchiveConfig) (*Archive, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("anomaly: open archive: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("anomaly: stat archive: %w", err)
	}
	return &Archive{
		w: f, path: path, cfg: cfg.withDefaults(),
		buf: make([]byte, 0, 4096), size: st.Size(),
	}, nil
}

// Record appends one lifecycle record as a JSONL line, rotating first if
// the line would overflow MaxBytes. It never blocks beyond the file
// write and performs no allocations in steady state.
func (a *Archive) Record(rec ArchiveRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		a.dropped++
		return
	}
	a.buf = appendRecordJSON(a.buf[:0], rec)
	a.buf = append(a.buf, '\n')
	if a.path != "" && a.cfg.MaxBytes > 0 && a.size > 0 && a.size+int64(len(a.buf)) > a.cfg.MaxBytes {
		if err := a.rotate(); err != nil {
			a.err = err
			a.dropped++
			return
		}
	}
	n, err := a.w.Write(a.buf)
	a.size += int64(n)
	if err != nil {
		a.err = err
		a.dropped++
		return
	}
	a.records++
}

// rotate shifts path.i -> path.(i+1), dropping the oldest, and reopens a
// fresh current file. Called with the lock held.
func (a *Archive) rotate() error {
	f, ok := a.w.(*os.File)
	if !ok {
		return nil
	}
	if err := f.Close(); err != nil {
		return err
	}
	os.Remove(rotatedName(a.path, a.cfg.MaxFiles-1))
	for i := a.cfg.MaxFiles - 2; i >= 1; i-- {
		os.Rename(rotatedName(a.path, i), rotatedName(a.path, i+1))
	}
	if err := os.Rename(a.path, rotatedName(a.path, 1)); err != nil {
		return err
	}
	nf, err := os.OpenFile(a.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	a.w = nf
	a.size = 0
	a.rotations++
	return nil
}

func rotatedName(path string, i int) string { return path + "." + strconv.Itoa(i) }

// Close closes the underlying file (if any). Further records are dropped.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err == nil {
		a.err = errArchiveClosed
	}
	if f, ok := a.w.(io.Closer); ok {
		return f.Close()
	}
	return nil
}

// Records reports lifecycle records successfully appended; Rotations the
// file rotations performed; Dropped records lost to errors or Close; Err
// the latched first write error (nil while healthy or merely closed).
func (a *Archive) Records() int   { a.mu.Lock(); defer a.mu.Unlock(); return a.records }
func (a *Archive) Rotations() int { a.mu.Lock(); defer a.mu.Unlock(); return a.rotations }
func (a *Archive) Dropped() int   { a.mu.Lock(); defer a.mu.Unlock(); return a.dropped }
func (a *Archive) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err == errArchiveClosed {
		return nil
	}
	return a.err
}

var errArchiveClosed = errors.New("anomaly: archive closed")

// appendRecordJSON encodes rec exactly as encoding/json reads
// ArchiveRecord, into buf, without allocating. Field order mirrors the
// struct; omitempty fields are skipped when zero. Strings are resource
// and detector names (no characters needing JSON escaping beyond what
// strconv.AppendQuote handles).
func appendRecordJSON(buf []byte, rec ArchiveRecord) []byte {
	buf = append(buf, '{')
	if rec.Cell != "" {
		buf = append(buf, `"cell":`...)
		buf = strconv.AppendQuote(buf, rec.Cell)
		buf = append(buf, ',')
	}
	if rec.Round != 0 {
		buf = append(buf, `"round":`...)
		buf = strconv.AppendInt(buf, int64(rec.Round), 10)
		buf = append(buf, ',')
	}
	if rec.Event != "" {
		buf = append(buf, `"event":`...)
		buf = strconv.AppendQuote(buf, rec.Event)
		buf = append(buf, ',')
	}
	buf = append(buf, `"incident":`...)
	buf = appendIncidentJSON(buf, rec.Incident)
	return append(buf, '}')
}

// appendIncidentJSON encodes in as encoding/json reads Incident.
func appendIncidentJSON(buf []byte, in Incident) []byte {
	buf = append(buf, `{"id":`...)
	buf = strconv.AppendInt(buf, int64(in.ID), 10)
	buf = append(buf, `,"resource":`...)
	buf = strconv.AppendQuote(buf, in.Resource)
	buf = append(buf, `,"metric":`...)
	buf = strconv.AppendQuote(buf, in.Metric)
	buf = append(buf, `,"family":`...)
	buf = strconv.AppendQuote(buf, in.Family)
	buf = append(buf, `,"detector":`...)
	buf = strconv.AppendQuote(buf, in.Detector)
	buf = append(buf, `,"onset_window":`...)
	buf = strconv.AppendInt(buf, int64(in.OnsetWindow), 10)
	buf = append(buf, `,"onset_start_ps":`...)
	buf = strconv.AppendInt(buf, int64(in.OnsetStart), 10)
	buf = append(buf, `,"onset_end_ps":`...)
	buf = strconv.AppendInt(buf, int64(in.OnsetEnd), 10)
	buf = append(buf, `,"clear_window":`...)
	buf = strconv.AppendInt(buf, int64(in.ClearWindow), 10)
	if in.ClearEnd != 0 {
		buf = append(buf, `,"clear_end_ps":`...)
		buf = strconv.AppendInt(buf, int64(in.ClearEnd), 10)
	}
	buf = append(buf, `,"baseline":`...)
	buf = appendFloat(buf, in.Baseline)
	buf = append(buf, `,"severity":`...)
	buf = appendFloat(buf, in.Severity)
	buf = append(buf, `,"peak_window":`...)
	buf = strconv.AppendInt(buf, int64(in.PeakWindow), 10)
	buf = append(buf, `,"peak_ps":`...)
	buf = strconv.AppendInt(buf, int64(in.PeakPS), 10)
	if in.SyntheticClear {
		buf = append(buf, `,"synthetic_clear":true`...)
	}
	if len(in.Bottlenecks) > 0 {
		buf = append(buf, `,"bottlenecks":[`...)
		for i, b := range in.Bottlenecks {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendBottleneckJSON(buf, b)
		}
		buf = append(buf, ']')
	}
	return append(buf, '}')
}

// appendBottleneckJSON encodes b with metrics.Bottleneck's (untagged)
// exported field names.
func appendBottleneckJSON(buf []byte, b metrics.Bottleneck) []byte {
	buf = append(buf, `{"Resource":`...)
	buf = strconv.AppendQuote(buf, b.Resource)
	buf = append(buf, `,"Family":`...)
	buf = strconv.AppendQuote(buf, b.Family)
	buf = append(buf, `,"Wait":`...)
	buf = strconv.AppendInt(buf, int64(b.Wait), 10)
	buf = append(buf, `,"Share":`...)
	buf = appendFloat(buf, b.Share)
	buf = append(buf, `,"Refused":`...)
	buf = appendFloat(buf, b.Refused)
	buf = append(buf, `,"Util":`...)
	buf = appendFloat(buf, b.Util)
	buf = append(buf, `,"Depth":`...)
	buf = appendFloat(buf, b.Depth)
	return append(buf, '}')
}

// appendFloat writes v in shortest-exact form ('g' with -1 precision),
// which strconv.ParseFloat — and so encoding/json — reads back bit-exact.
func appendFloat(buf []byte, v float64) []byte {
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// ReadArchive parses one JSONL stream of lifecycle records, append order.
// A crash mid-append leaves a torn final line: one with no trailing
// newline that does not decode. ReadArchive drops such a line and returns
// the records before it with dropped = 1. An undecodable line anywhere
// else is corruption and an error.
func ReadArchive(r io.Reader) (recs []ArchiveRecord, dropped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	unterminated := false // the last token scanned had no newline
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		unterminated = atEOF && tok != nil && bytes.IndexByte(data, '\n') < 0
		return adv, tok, err
	})
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec ArchiveRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			if unterminated {
				return recs, 1, nil
			}
			return nil, 0, fmt.Errorf("anomaly: archive line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("anomaly: reading archive: %w", err)
	}
	return recs, 0, nil
}

// LoadArchive reads the rotated archive set at path (oldest rotation
// first, current file last) and folds the event stream: the returned
// records are each incident's latest state, in first-onset order —
// exactly the incident list a serving mirror would hold, reconstructed
// from disk. dropped counts the torn final lines skipped across the set
// (see ReadArchive).
func LoadArchive(path string) (recs []ArchiveRecord, dropped int, err error) {
	// Rotated files carry no MaxFiles hint, so probe downward from the
	// highest existing suffix.
	maxRot := 0
	for i := 1; ; i++ {
		if _, err := os.Stat(rotatedName(path, i)); err != nil {
			break
		}
		maxRot = i
	}
	var events []ArchiveRecord
	for i := maxRot; i >= 0; i-- {
		name := path
		if i > 0 {
			name = rotatedName(path, i)
		}
		f, err := os.Open(name)
		if err != nil {
			return nil, 0, err
		}
		got, n, err := ReadArchive(f)
		f.Close()
		if err != nil {
			return nil, 0, err
		}
		events = append(events, got...)
		dropped += n
	}
	return FoldArchive(events), dropped, nil
}

// FoldArchive reduces a lifecycle event stream to the latest record per
// incident, ordered by each incident's first event. Later events replace
// earlier ones wholesale — every record is a complete snapshot.
func FoldArchive(events []ArchiveRecord) []ArchiveRecord {
	idx := make(map[ArchiveKey]int, len(events))
	out := make([]ArchiveRecord, 0, len(events))
	for _, ev := range events {
		k := ev.Key()
		if i, ok := idx[k]; ok {
			out[i] = ev
			continue
		}
		idx[k] = len(out)
		out = append(out, ev)
	}
	return out
}
