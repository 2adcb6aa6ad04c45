package anomaly

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// archiveFixtureRecord is a fully-populated lifecycle record — every
// field the wire form can carry, including the mid-window peak stamps
// and a bottleneck ranking.
func archiveFixtureRecord() ArchiveRecord {
	return ArchiveRecord{
		Cell:  "fig4/s1c2",
		Round: 3,
		Event: EventUpdate,
		Incident: Incident{
			ID:          2,
			Resource:    "umc0/rd",
			Metric:      metrics.MetricWait,
			Family:      "memsys",
			Detector:    DetectorBoth,
			OnsetWindow: 4,
			OnsetStart:  400_000_000,
			OnsetEnd:    500_000_000,
			ClearWindow: 9,
			ClearEnd:    1_000_000_000,
			Baseline:    0.0375,
			Severity:    5.5,
			PeakWindow:  7,
			PeakPS:      800_000_000,
			Bottlenecks: []metrics.Bottleneck{
				{Resource: "umc0/rd", Family: "memsys", Wait: 55_000_000, Share: 0.85, Refused: 0.25, Util: 0.99, Depth: 3.5},
				{Resource: "gmi0", Family: "link", Wait: 9_000_000, Share: 0.15, Util: 0.6},
			},
		},
	}
}

// TestArchiveEncoderMatchesStdlib checks the hand-rolled encoder is
// byte-identical to encoding/json for realistic records — the property
// that makes the alloc-free append path safe to read back with the
// stdlib decoder.
func TestArchiveEncoderMatchesStdlib(t *testing.T) {
	recs := []ArchiveRecord{
		archiveFixtureRecord(),
		{Incident: Incident{ClearWindow: -1}}, // zero record, open incident
		{Cell: "a", Event: EventOnset, Incident: Incident{
			ID: 0, Resource: "ccd1/wr", Metric: "wait_ps", Family: "noc",
			Detector: DetectorEWMA, OnsetWindow: 0, OnsetEnd: 100, ClearWindow: -1,
			Severity: 0.25, PeakPS: 100,
		}},
		{Cell: "b", Round: 1, Event: EventReset, Incident: Incident{
			Resource: "umc3", ClearWindow: 5, ClearEnd: 600, SyntheticClear: true,
			Baseline: 0.125, Severity: 12.75, PeakWindow: 2, PeakPS: 300,
		}},
	}
	for i, rec := range recs {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got := appendRecordJSON(nil, rec)
		if !bytes.Equal(got, want) {
			t.Errorf("record %d:\nhand-rolled %s\nstdlib      %s", i, got, want)
		}
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	a := NewArchive(&buf)
	want := []ArchiveRecord{
		{Cell: "c0", Event: EventOnset, Incident: Incident{ID: 0, Resource: "umc0/rd", ClearWindow: -1, Severity: 5}},
		archiveFixtureRecord(),
	}
	for _, rec := range want {
		a.Record(rec)
	}
	if a.Records() != len(want) || a.Err() != nil {
		t.Fatalf("Records = %d (err %v), want %d", a.Records(), a.Err(), len(want))
	}
	got, _, err := ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestArchiveCloseLatches checks that records after Close are dropped and
// counted, without reporting a spurious error.
func TestArchiveCloseLatches(t *testing.T) {
	a := NewArchive(io.Discard)
	a.Record(archiveFixtureRecord())
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a.Record(archiveFixtureRecord())
	if a.Records() != 1 || a.Dropped() != 1 {
		t.Errorf("after close: records %d dropped %d, want 1/1", a.Records(), a.Dropped())
	}
	if a.Err() != nil {
		t.Errorf("Err after clean close = %v, want nil", a.Err())
	}
}

// TestArchiveRotation drives a file-backed archive past MaxBytes and
// checks the rotated set: every file valid JSONL, no record lost, oldest
// shifted to the highest suffix, and the set bounded by MaxFiles.
func TestArchiveRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "incidents.jsonl")
	lineLen := len(appendRecordJSON(nil, archiveFixtureRecord())) + 1
	a, err := OpenArchive(path, ArchiveConfig{MaxBytes: int64(3*lineLen + 1), MaxFiles: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		rec := archiveFixtureRecord()
		rec.Incident.ID = i
		a.Record(rec)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if a.Records() != n || a.Dropped() != 0 {
		t.Fatalf("records %d dropped %d, want %d/0", a.Records(), a.Dropped(), n)
	}
	if a.Rotations() == 0 {
		t.Fatal("no rotations for a 10-record archive capped at 3 lines")
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("rotated file missing: %v", err)
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Errorf("MaxFiles=3 should leave no .3 file, stat err = %v", err)
	}
	// Each file in the set must be valid JSONL on its own.
	total := 0
	for _, p := range []string{path + ".2", path + ".1", path} {
		f, err := os.Open(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := ReadArchive(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		total += len(recs)
	}
	// MaxFiles bounds the set, so the oldest records may be gone — but
	// everything retained must load, in bounded quantity.
	if total == 0 || total > n {
		t.Errorf("retained %d records across the set, want (0, %d]", total, n)
	}
}

// TestLoadArchiveFolds writes a lifecycle event stream — onset, update,
// clear; a second incident left open; a third reset synthetically — and
// checks LoadArchive reproduces each incident's latest state once, in
// first-onset order.
func TestLoadArchiveFolds(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arch.jsonl")
	a, err := OpenArchive(path, ArchiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(cell string, id int, sev float64, clearW int, synth bool) Incident {
		return Incident{
			ID: id, Resource: "umc0/rd", Metric: "wait_ps", Family: "memsys",
			Detector: DetectorEWMA, OnsetWindow: 2, OnsetStart: 200, OnsetEnd: 300,
			ClearWindow: clearW, Severity: sev, SyntheticClear: synth,
		}
	}
	a.Record(ArchiveRecord{Cell: "c0", Event: EventOnset, Incident: mk("c0", 0, 5, -1, false)})
	a.Record(ArchiveRecord{Cell: "c1", Event: EventOnset, Incident: mk("c1", 0, 4, -1, false)})
	a.Record(ArchiveRecord{Cell: "c0", Event: EventUpdate, Incident: mk("c0", 0, 5.5, -1, false)})
	a.Record(ArchiveRecord{Cell: "c0", Event: EventClear, Incident: mk("c0", 0, 5.5, 7, false)})
	a.Record(ArchiveRecord{Cell: "c1", Round: 0, Event: EventReset, Incident: mk("c1", 0, 4.25, 9, true)})
	a.Record(ArchiveRecord{Cell: "c1", Round: 1, Event: EventOnset, Incident: mk("c1", 0, 6, -1, false)})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	recs, dropped, err := LoadArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("dropped %d lines of a cleanly closed archive", dropped)
	}
	if len(recs) != 3 {
		t.Fatalf("folded to %d records, want 3: %+v", len(recs), recs)
	}
	// First-onset order: c0 then c1#0 then c1#1, each at its latest state.
	if recs[0].Cell != "c0" || recs[0].Event != EventClear || recs[0].Incident.Severity != 5.5 || recs[0].Incident.ClearWindow != 7 {
		t.Errorf("c0 folded to %+v, want the clear at severity 5.5", recs[0])
	}
	if recs[1].Cell != "c1" || recs[1].Round != 0 || !recs[1].Incident.SyntheticClear || recs[1].Incident.Open() {
		t.Errorf("c1#0 folded to %+v, want the synthetic clear", recs[1])
	}
	if recs[2].Cell != "c1" || recs[2].Round != 1 || !recs[2].Incident.Open() {
		t.Errorf("c1#1 folded to %+v, want the round-1 open onset", recs[2])
	}
}

func TestReadArchiveBadLine(t *testing.T) {
	_, _, err := ReadArchive(strings.NewReader("{\"incident\":{}}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want a line-2 parse error", err)
	}
}

// TestReadArchiveTornTail cuts a written archive at every byte offset of
// its last record — what a crash mid-append leaves — and checks the
// prefix always loads: a cut inside the record drops exactly that one
// torn line, and a cut at either end of it drops nothing. Each cut is
// also loaded through LoadArchive as the current file of a rotated set.
func TestReadArchiveTornTail(t *testing.T) {
	var buf bytes.Buffer
	a := NewArchive(&buf)
	want := []ArchiveRecord{
		{Cell: "c0", Event: EventOnset, Incident: Incident{ID: 0, Resource: "umc0/rd", ClearWindow: -1, Severity: 5}},
		archiveFixtureRecord(),
	}
	for _, rec := range want {
		a.Record(rec)
	}
	full := buf.Bytes()
	last := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	dir := t.TempDir()
	path := filepath.Join(dir, "arch.jsonl")
	// A clean rotated file, holding another cell's record, ahead of the
	// torn current one.
	var rotated bytes.Buffer
	NewArchive(&rotated).Record(ArchiveRecord{Cell: "r", Event: EventOnset, Incident: Incident{ClearWindow: -1}})
	if err := os.WriteFile(path+".1", rotated.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for cut := last; cut <= len(full); cut++ {
		got, dropped, err := ReadArchive(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		wantRecs, wantDropped := want[:1], 1
		switch {
		case cut == last:
			wantDropped = 0
		case cut >= len(full)-1: // the whole record, with or without its newline
			wantRecs, wantDropped = want, 0
		}
		if dropped != wantDropped || !reflect.DeepEqual(got, wantRecs) {
			t.Fatalf("cut at %d: %d records, %d dropped; want %d, %d", cut, len(got), dropped, len(wantRecs), wantDropped)
		}

		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		folded, dropped, err := LoadArchive(path)
		if err != nil {
			t.Fatalf("LoadArchive, cut at %d: %v", cut, err)
		}
		if dropped != wantDropped || len(folded) != 1+len(wantRecs) || folded[0].Cell != "r" {
			t.Fatalf("LoadArchive, cut at %d: %+v, %d dropped; want the rotated record + %d, %d dropped",
				cut, folded, dropped, len(wantRecs), wantDropped)
		}
	}
}

// TestReadArchiveTornLineMidFile: an undecodable line followed by more
// data is corruption, not a torn append, whether or not it ends in a
// newline of its own.
func TestReadArchiveTornLineMidFile(t *testing.T) {
	for _, in := range []string{
		"{\"cell\":\"a\"}\n{\"cell\":\nnext\n",
		"{\"cell\":\"a\"}\n{\"cell\":\n{\"cell\":\"b\"}\n",
		"{\"cell\":\"a\"}\n{\"cell\":\n\n",
	} {
		if recs, dropped, err := ReadArchive(strings.NewReader(in)); err == nil {
			t.Errorf("%q: loaded %d records, %d dropped; want an error", in, len(recs), dropped)
		}
	}
}

// FuzzReadArchive: no input panics the reader; at most the final line is
// dropped, and only when the input does not end in a newline.
func FuzzReadArchive(f *testing.F) {
	var buf bytes.Buffer
	a := NewArchive(&buf)
	a.Record(ArchiveRecord{Cell: "c0", Event: EventOnset, Incident: Incident{Resource: "umc0/rd", ClearWindow: -1}})
	a.Record(archiveFixtureRecord())
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-7])
	f.Add([]byte("{\"incident\":{}}\nnot json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, dropped, err := ReadArchive(bytes.NewReader(data))
		if err != nil {
			return
		}
		if dropped > 1 || (dropped == 1 && bytes.HasSuffix(data, []byte("\n"))) {
			t.Fatalf("dropped %d lines of %q", dropped, data)
		}
	})
}

// BenchmarkArchiveAppend gates the append path at 0 allocs/op: attaching
// an archive must not break the harvest tick's allocation discipline.
func BenchmarkArchiveAppend(b *testing.B) {
	a := NewArchive(io.Discard)
	rec := archiveFixtureRecord()
	a.Record(rec) // warm the buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Record(rec)
	}
	if a.Err() != nil {
		b.Fatal(a.Err())
	}
}
