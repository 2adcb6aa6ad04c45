package trace

import (
	"bytes"
	"strings"
	"testing"
)

// writtenTrace is a small annotated export: two hops, spans on both, and
// one closed and one open incident annotation.
func writtenTrace(t testing.TB) []byte {
	tr := New(Config{SpanCap: 16, TxnCap: 8})
	ch := tr.RegisterHop("ccd0/gmi/out", KindChannel)
	dev := tr.RegisterHop("umc0/dram", KindDevice)
	tr.Enable()
	tr.SetActive(3)
	tr.Enqueue(ch, 64, 1000, 1500, 2500, 11500)
	tr.Range(dev, CauseService, 11500, 53211)
	tr.EndTxn(3, 1000, 53211)
	anns := []Annotation{
		{Name: "umc0/dram", Start: 2000, End: 11000, Severity: 5.5, Baseline: 0.02, Detector: "ewma"},
		{Name: "ccd0/gmi/out", Start: 4000, End: 53211, Open: true, Severity: 1.25, Detector: "ewma+ph"},
	}
	var buf bytes.Buffer
	if err := tr.WriteTraceEventsAnnotated(&buf, anns); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadTraceEventsRejectsHostileTracks: a track id below zero used to
// index the hop table at -2 and panic, and a huge one grew the table to
// that length before any check. Both, and times beyond the exact
// round-trip range, must now fail to load with an error.
func TestReadTraceEventsRejectsHostileTracks(t *testing.T) {
	for name, doc := range map[string]string{
		"negative tid": `{"traceEvents":[{"ph":"M","tid":-1,"name":"thread_name","args":{"name":"x","kind":"channel"}}]}`,
		"huge tid":     `{"traceEvents":[{"ph":"M","tid":2000000000,"name":"thread_name","args":{"name":"x","kind":"channel"}}]}`,
		"tid past events": `{"traceEvents":[{"ph":"M","tid":3,"name":"thread_name","args":{"name":"x","kind":"channel"}},` +
			`{"ph":"X","tid":3,"ts":0,"dur":1,"name":"queued"}]}`,
		"huge ts": `{"traceEvents":[{"ph":"M","tid":1,"name":"thread_name","args":{"name":"x","kind":"channel"}},` +
			`{"ph":"X","tid":1,"ts":1e300,"dur":1,"name":"queued"}]}`,
		"huge dur": `{"traceEvents":[{"ph":"M","tid":1,"name":"thread_name","args":{"name":"x","kind":"channel"}},` +
			`{"ph":"X","tid":1,"ts":0,"dur":-2e9,"name":"queued"}]}`,
	} {
		if _, err := ReadTraceEvents(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
	// The highest legal track id is the event count.
	ok := `{"traceEvents":[{"ph":"M","tid":2,"name":"thread_name","args":{"name":"x","kind":"channel"}},` +
		`{"ph":"X","tid":2,"ts":0.5,"dur":1,"name":"queued"}]}`
	ld, err := ReadTraceEvents(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if len(ld.Hops) != 2 || ld.Hops[1].Name != "x" || len(ld.Spans) != 1 {
		t.Fatalf("loaded %+v", ld)
	}
}

// FuzzReadTraceEvents: no input panics the reader, and any input that
// loads re-exports to a file that loads again and re-exports to the
// same bytes.
func FuzzReadTraceEvents(f *testing.F) {
	f.Add(writtenTrace(f))
	f.Add([]byte(`{"traceEvents":[{"ph":"M","tid":-1,"name":"thread_name","args":{"name":"x"}}]}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"M","tid":1,"name":"thread_name","args":{"name":"\u0007<&>😀","kind":"pool"}},` +
		`{"ph":"X","tid":1,"ts":-3.0000005,"dur":1e-7,"name":"service","args":{"txn":7}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ld, err := ReadTraceEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := ld.WriteTraceEvents(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTraceEvents(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-export does not load: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteTraceEvents(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-export not stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
